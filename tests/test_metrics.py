"""Evaluation measures and the boundary-count sampling oracle."""

import math

import numpy as np
import pytest

from essc.errors import ParameterError
from essc.metrics import (
    DiscretePMF,
    best_match_score,
    binomial_pmf,
    empirical_boundary_distribution,
    gnmi_cover,
    jaccard,
    nmi_partition,
    tv_distance,
)

from helpers import boundary_law_exact, survival_exact


def test_jaccard_examples():
    assert jaccard({1, 2}, {1, 2}) == 1.0
    assert jaccard({1}, {2}) == 0.0
    assert jaccard({1, 2, 3}, {2, 3, 4}) == 0.5
    assert jaccard(set(), set()) == 1.0
    assert jaccard(set(), {1}) == 0.0


def test_jaccard_symmetry_and_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = {int(v) for v in rng.integers(0, 12, size=rng.integers(0, 10))}
        b = {int(v) for v in rng.integers(0, 12, size=rng.integers(0, 10))}
        assert jaccard(a, b) == jaccard(b, a)
        assert (jaccard(a, b) == 1.0) == (a == b)


def test_best_match_examples():
    assert best_match_score([{3, 4}], {3, 4}) == 1.0
    assert best_match_score([], {1}) == 0.0
    assert best_match_score([{1, 2}, {3, 4, 5}], {3, 4}) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        best_match_score([{1}], set())


def test_nmi_partition_examples():
    p = [{1, 2}, {3, 4}]
    assert nmi_partition(p, [{1, 2}, {3, 4}]) == 1.0
    assert nmi_partition(p, [{1, 3}, {2, 4}]) == 0.0
    singles = [{i} for i in range(4)]
    assert nmi_partition(singles, [{0, 1, 2, 3}]) == 0.0
    assert nmi_partition([{0, 1}], [{0, 1}]) == 1.0  # both trivial
    assert nmi_partition([], []) == 1.0  # no vertices


def test_nmi_partition_validation():
    with pytest.raises(ValueError):
        nmi_partition([{1, 2}, {2, 3}], [{1, 2, 3}])
    with pytest.raises(ValueError):
        nmi_partition([{1, 2}], [{1, 2, 3}])


def test_nmi_partition_symmetric_and_label_free():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(4, 24))
        pa = rng.integers(0, 3, size=n)
        qa = rng.integers(0, 4, size=n)
        p = [set(np.nonzero(pa == c)[0].tolist()) for c in range(3)]
        q = [set(np.nonzero(qa == c)[0].tolist()) for c in range(4)]
        p = [b for b in p if b]
        q = [b for b in q if b]
        v = nmi_partition(p, q)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(nmi_partition(q, p), abs=1e-12)
        assert nmi_partition(list(reversed(p)), q) == pytest.approx(v, abs=1e-12)


def _h(c, n):
    return -(c / n) * math.log(c / n) if c > 0 else 0.0


def gnmi_oracle(cover_a, cover_b) -> float:
    """Straight-line reimplementation of the cover score from explicit
    membership vectors; kept deliberately independent of the library code."""
    xs = [frozenset(c) for c in cover_a[0]]
    if cover_a[1]:
        xs.append(frozenset(cover_a[1]))
    ys = [frozenset(c) for c in cover_b[0]]
    if cover_b[1]:
        ys.append(frozenset(cover_b[1]))
    n = len(frozenset().union(*xs, *ys))

    def entropy(s):
        return _h(len(s), n) + _h(n - len(s), n)

    def side(a_sets, b_sets):
        total = 0.0
        for a in a_sets:
            ha = entropy(a)
            if ha == 0.0:
                total += 0.0 if any(a == b for b in b_sets) else 1.0
                continue
            best = ha
            for b in b_sets:
                n11 = len(a & b)
                n10 = len(a - b)
                n01 = len(b - a)
                n00 = n - len(a | b)
                if _h(n11, n) + _h(n00, n) < _h(n01, n) + _h(n10, n):
                    continue
                joint = _h(n11, n) + _h(n10, n) + _h(n01, n) + _h(n00, n)
                best = min(best, joint - entropy(b))
            total += min(1.0, max(0.0, best / ha))
        return total / len(a_sets)

    return 1.0 - 0.5 * (side(xs, ys) + side(ys, xs))


def test_gnmi_identical_covers():
    cover = ([{0, 1, 2}, {3, 4}], {5, 6})
    assert gnmi_cover(cover, cover) == pytest.approx(1.0, abs=1e-12)
    all_bg = ([], set(range(7)))
    assert gnmi_cover(all_bg, all_bg) == pytest.approx(1.0, abs=1e-12)
    assert gnmi_cover(([], []), ([], [])) == 1.0  # no vertices


def test_gnmi_one_block_versus_singletons():
    n = 12
    block = ([set(range(n))], set())
    singles = ([{i} for i in range(n)], set())
    value = gnmi_cover(block, singles)
    assert value == pytest.approx(gnmi_oracle(block, singles), abs=1e-9)
    assert value <= 0.05


def test_gnmi_matches_oracle_on_random_covers():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(6, 30))
        def random_cover():
            k = int(rng.integers(1, 5))
            labels = rng.integers(0, k, size=n)
            comms = [set(np.nonzero(labels == c)[0].tolist()) for c in range(k)]
            comms = [c for c in comms if c]
            # sprinkle overlap
            for _ in range(int(rng.integers(0, 4))):
                if len(comms) >= 2:
                    v = int(rng.integers(0, n))
                    comms[int(rng.integers(0, len(comms)))].add(v)
            bg = set()
            if rng.random() < 0.5 and len(comms) > 1:
                bg = comms.pop()
            return comms, bg
        a = random_cover()
        b = random_cover()
        assert gnmi_cover(a, b) == pytest.approx(gnmi_oracle(a, b), abs=1e-9)


def test_gnmi_partitions_match_oracle():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(5, 30))
        la = rng.integers(0, 3, size=n)
        lb = rng.integers(0, 3, size=n)
        a = ([set(np.nonzero(la == c)[0].tolist()) for c in range(3) if (la == c).any()], set())
        b = ([set(np.nonzero(lb == c)[0].tolist()) for c in range(3) if (lb == c).any()], set())
        assert gnmi_cover(a, b) == pytest.approx(gnmi_oracle(a, b), abs=1e-9)


def test_gnmi_rejects_mismatched_universes():
    with pytest.raises(ValueError):
        gnmi_cover(([{0, 1}], {2}), ([{0, 1}], set()))
    with pytest.raises(ValueError):
        gnmi_cover(([{0, 2}], set()), ([{0, 2}], set()))  # ids not dense


def test_gnmi_rejects_non_integer_ids():
    # truncation would read 1.5 as 1 and score 1.0
    with pytest.raises(TypeError):
        gnmi_cover(([[0, 1.5]], [2]), ([[0, 1]], [2]))


def test_tv_distance_examples():
    p = DiscretePMF({0: 0.5, 1: 0.5})
    assert tv_distance(p, p) == 0.0
    assert tv_distance(DiscretePMF({0: 1.0}), DiscretePMF({1: 1.0})) == 1.0
    q = DiscretePMF({0: 0.75, 1: 0.25})
    assert tv_distance(p, q) == pytest.approx(0.25)


def test_tv_distance_is_a_metric():
    rng = np.random.default_rng(3)
    def random_pmf():
        k = int(rng.integers(1, 6))
        w = rng.random(k)
        w /= w.sum()
        support = rng.choice(10, size=k, replace=False)
        return DiscretePMF({int(s): float(x) for s, x in zip(support, w)})
    for _ in range(30):
        a, b, c = random_pmf(), random_pmf(), random_pmf()
        assert tv_distance(a, b) == pytest.approx(tv_distance(b, a))
        assert tv_distance(a, a) == 0.0
        assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12


def test_discrete_pmf_validation():
    with pytest.raises(ValueError):
        DiscretePMF({0: 0.4, 1: 0.4})
    with pytest.raises(ValueError):
        DiscretePMF({-1: 1.0})
    with pytest.raises(ValueError):
        DiscretePMF({0: 1.2, 1: -0.2})
    # NaN compares False both ways, so each check must be written to fail
    # it; the error names the outcome, not only the NaN total
    with pytest.raises(ValueError, match="outcome 0"):
        DiscretePMF({0: math.nan})
    with pytest.raises(ValueError, match="outcome 1"):
        DiscretePMF({0: 1.0, 1: math.nan})


def test_binomial_pmf_matches_exact():
    for k in range(41):
        for p in (0.0, 0.001, 0.1, 0.3, 0.5, 0.77, 0.999, 1.0):
            pmf = binomial_pmf(k, p)
            assert list(pmf.mass) == list(range(k + 1))
            for x in range(k + 1):
                exact = float(survival_exact(k, p, x) - survival_exact(k, p, x + 1))
                assert abs(pmf.mass[x] - exact) <= 1e-12, (k, p, x)


def test_binomial_pmf_sums_to_one_at_large_k():
    # a pmf built as exp of a log-gamma log-pmf drifts past DiscretePMF's
    # 1e-9 check near k = 1e6; differences of the tails telescope
    for p in (0.01, 0.37, 0.5, 0.93):
        assert abs(math.fsum(binomial_pmf(10**5, p).mass.values()) - 1.0) <= 1e-12


@pytest.mark.parametrize("k, p", [(5, 1.5), (5, -0.1), (5, math.nan), (-1, 0.5)])
def test_binomial_pmf_rejects_laws_it_cannot_score(k, p):
    with pytest.raises(ValueError):
        binomial_pmf(k, p)


def test_binomial_pmf_rejects_a_non_integer_trial_count():
    with pytest.raises(TypeError):
        binomial_pmf(2.5, 0.5)


def test_empirical_boundary_forced_edge():
    pmf = empirical_boundary_distribution([1, 1], 0, [1], 200, 1)
    assert pmf.mass == {1: 1.0}


def test_empirical_boundary_four_stubs():
    # stub 0 pairs uniformly with 3 partners: P(hit) = 1/3
    pmf = empirical_boundary_distribution([1, 1, 1, 1], 0, [1], 100_000, 2)
    sigma = math.sqrt((1 / 3) * (2 / 3) / 100_000)
    assert abs(pmf.mass.get(1, 0.0) - 1 / 3) <= 3 * sigma


def test_empirical_boundary_validation():
    with pytest.raises(ParameterError):
        empirical_boundary_distribution([1, 1, 1], 0, [1], 10, 1)
    with pytest.raises(ValueError):
        empirical_boundary_distribution([1, 1], 0, [1], 0, 1)
    with pytest.raises(ValueError):
        empirical_boundary_distribution([1, 1], 5, [1], 10, 1)
    # a negative degree away from u, with an even degree sum
    with pytest.raises(ParameterError):
        empirical_boundary_distribution([2, -1, 1], 0, [2], 10, 1)
    with pytest.raises(ParameterError):
        empirical_boundary_distribution([-2, 2], 1, [0], 10, 1)
    for member in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            empirical_boundary_distribution([1, 1, 2], 0, [1, member], 10, 1)


@pytest.mark.parametrize(
    "degrees, u, b",
    [([1.9, 1.9, 0.5], 0, [1]), ([1, 1, 2], 0, [1.5]), ([1, 1, 2], 0.5, [1])],
)
def test_empirical_boundary_rejects_non_integer_input(degrees, u, b):
    # truncation would sample the degrees [1, 1, 0] or the member 1
    with pytest.raises(TypeError):
        empirical_boundary_distribution(degrees, u, b, 10, 1)


@pytest.mark.parametrize(
    "degrees, u, b",
    [
        ([2, 1, 2, 1, 2], 0, [1, 2]),  # u outside b
        ([3, 1, 2, 2], 0, [0, 1]),  # u in b, self-loops count 2
        ([3, 3, 2, 2], 1, [1, 3]),  # u in b, b's other member has 2 stubs
        ([4, 3, 1], 0, [0, 1, 2]),  # every stub in b: the count is always 4
    ],
)
def test_empirical_boundary_matches_exact_matching_law(degrees, u, b):
    samples = 40_000
    exact = {c: float(w) for c, w in boundary_law_exact(degrees, u, b).items()}
    emp = empirical_boundary_distribution(degrees, u, b, samples, 11)
    # the sum of per-outcome standard errors bounds the mean TV from above
    se = 0.5 * sum(math.sqrt(q * (1 - q) / samples) for q in exact.values())
    assert tv_distance(emp, DiscretePMF(exact)) <= 4 * se


def test_empirical_boundary_is_reproducible():
    degrees = [5, 3, 2, 4, 1, 1]
    first = empirical_boundary_distribution(degrees, 0, [0, 3], 5000, 8)
    assert empirical_boundary_distribution(degrees, 0, [0, 3], 5000, 8) == first


def test_empirical_boundary_degree_zero_vertex():
    pmf = empirical_boundary_distribution([0, 1, 1], 0, [1, 2], 50, 4)
    assert pmf.mass == {0: 1.0}


def test_boundary_law_approaches_binomial_with_size():
    from essc.bench import sample_powerlaw_degrees

    tvs = {}
    for n, samples in ((100, 30_000), (1000, 20_000), (5000, 8_000)):
        rng = np.random.default_rng(42)
        degrees = sample_powerlaw_degrees(n, 2.0, 20, rng)
        u = int(np.argmin(np.abs(degrees - 50)))
        others = np.array([v for v in range(n) if v != u])
        members = rng.choice(others, size=n // 10, replace=False)
        emp = empirical_boundary_distribution(degrees, u, members.tolist(), samples, rng)
        p = float(degrees[members].sum() / degrees.sum())
        tvs[n] = tv_distance(emp, binomial_pmf(int(degrees[u]), p))
    noise_band = 0.02
    assert tvs[1000] <= tvs[100] + noise_band
    assert tvs[5000] <= tvs[1000] + noise_band
    assert tvs[100] <= 0.08
