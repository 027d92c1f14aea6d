"""Multigraph construction, counting, and edge-list round trips."""

from collections import Counter

import numpy as np
import pytest

from essc.errors import EdgeListParseError
from essc.graph import MultiGraph, as_id_array, parse_edge_list, write_edge_list
from essc.significance import _boundary_law, block_probability

from helpers import boundary_count, random_multigraph, triangle


def test_parse_simple_path():
    g = parse_edge_list("0 1\n1 2\n")
    assert g.n == 3
    assert g.edge_count == 2
    assert g.degrees.tolist() == [1, 2, 1]


def test_parse_self_loop_counts_twice():
    g = parse_edge_list("a a\n")
    assert g.n == 1
    assert g.edge_count == 1
    assert g.degree(0) == 2


def test_parse_repeated_lines_accumulate():
    g = parse_edge_list("0 1\n0 1\n")
    assert g.n == 2
    assert g.edge_count == 2
    assert g.degree(0) == 2


def test_parse_multiplicity_column_and_comments():
    g = parse_edge_list("# header\n\nx y 3\ny z\n")
    assert g.n == 3
    assert g.edge_count == 4
    assert g.degree(0) == 3  # x
    assert g.degree(1) == 4  # y


def test_parse_labels_first_seen_order():
    g = parse_edge_list("b a\nc b\n")
    assert g.labels == ["b", "a", "c"]
    assert g.degree(0) == 2


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("0 1\n0\n", 2),
        ("0 1 2 3\n", 1),
        ("0 1 x\n", 1),
        ("0 1 0\n", 1),
        ("0 1 -2\n", 1),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list(text)
    assert err.value.lineno == lineno


@pytest.mark.parametrize("mult", ["9007199254740992", "9007199254740993", "99999999999999999999"])
def test_parse_rejects_multiplicities_past_exact_counting(mult):
    # 2**53 and above: one would overflow int64, the other would be
    # rounded by the float64 accumulation
    with pytest.raises(EdgeListParseError, match="2\\*\\*53") as err:
        parse_edge_list(f"a b\na b {mult}\n")
    assert err.value.lineno == 2
    largest = parse_edge_list("a b 4503599627370495\n")
    assert largest.edge_count == 2**52 - 1
    assert largest.degrees.tolist() == [2**52 - 1] * 2


def test_total_degree_past_exact_counting_is_rejected():
    # every line is below 2**53, but 2|E| reaches it across lines, or
    # through a loop entry that holds twice its multiplicity
    half = 2**51
    with pytest.raises(ValueError, match="2\\*\\*53"):
        parse_edge_list(f"a b {half}\nb c {half - 1}\nc d 1\n")
    with pytest.raises(ValueError, match="2\\*\\*53"):
        parse_edge_list(f"a a {2 * half}\n")
    with pytest.raises(ValueError, match="2\\*\\*53"):
        MultiGraph.from_pair_arrays(3, [0, 1, 2], [1, 2, 0], [half, half, half])
    g = parse_edge_list(f"a b {half}\nb c {half - 1}\n")
    assert 2 * g.edge_count == 2**53 - 2
    assert g.degrees.tolist() == [half, 2 * half - 1, half - 1]


def test_builders_reject_non_integer_input():
    # a float endpoint or multiplicity raises, as a float id does, rather
    # than being truncated to the integer below it
    with pytest.raises(TypeError):
        MultiGraph.from_pair_arrays(3, [0.7], [1.2])
    with pytest.raises(TypeError):
        MultiGraph.from_pair_arrays(3, [0], [1.0])
    with pytest.raises(TypeError):
        MultiGraph.from_pair_arrays(3, [0], [1], [2.0])
    with pytest.raises(TypeError):
        MultiGraph.from_edges(3, [(0, 1, 2.9)])
    with pytest.raises(TypeError):
        MultiGraph.from_edges(3, [(0, 1), (1.0, 2)])
    # nor is a float vertex count truncated
    with pytest.raises(TypeError):
        MultiGraph.from_pair_arrays(3.7, [0], [1])
    with pytest.raises(TypeError):
        MultiGraph.from_edges(3.7, [(0, 1)])
    # empty input stays valid, though np.asarray([]) is float64
    assert MultiGraph.from_pair_arrays(3, [], [], []).edge_count == 0
    assert MultiGraph.from_edges(3, []).edge_count == 0
    g = MultiGraph.from_pair_arrays(3, np.array([0], dtype=np.int32), np.array([2], dtype=np.uint8), [3])
    assert g.edge_count == 3


def test_builders_check_the_multiplicity_length():
    for mult in ([1], [], [1, 1, 1]):
        with pytest.raises(ValueError, match="equal length"):
            MultiGraph.from_pair_arrays(3, [0, 1], [1, 2], mult)
    with pytest.raises(ValueError, match="equal length"):
        MultiGraph.from_pair_arrays(3, [0, 1], [1])
    with pytest.raises(ValueError, match="multiplicity must be >= 1"):
        MultiGraph.from_pair_arrays(3, [0, 1], [1, 2], [1, 0])
    with pytest.raises(ValueError, match="one entry per vertex"):
        MultiGraph.from_edges(3, [(0, 1)], labels=["a", "b"])


def test_label_starting_with_comment_mark_is_rejected():
    # a first-column '#b' would make the line a comment, so '#b' cannot
    # round-trip through write_edge_list
    with pytest.raises(EdgeListParseError, match="'#b'") as err:
        parse_edge_list("x y\nx #b\ny #b\n")
    assert err.value.lineno == 2


def test_labels_round_trip_through_write():
    g = parse_edge_list("x b#\n# comment\ny b# 2\nb# x\n")
    h = parse_edge_list(write_edge_list(g))
    assert h.labels == g.labels
    assert list(h.edge_classes()) == list(g.edge_classes())


def test_boundary_count_triangle():
    g = triangle()
    assert boundary_count(g, 0, {1, 2}) == 2
    assert boundary_count(g, 0, set()) == 0


def test_boundary_count_multiplicity():
    g = MultiGraph.from_edges(2, [(0, 1, 3)])
    assert boundary_count(g, 0, {1}) == 3


def test_boundary_count_self_loop_membership():
    g = MultiGraph.from_edges(2, [(0, 0), (0, 1)])
    assert g.degree(0) == 3
    assert boundary_count(g, 0, {0}) == 2
    assert boundary_count(g, 0, {0, 1}) == 3
    assert boundary_count(g, 0, {1}) == 1


def test_volume_examples():
    g = triangle()
    assert g.volume({0, 1, 2}) == 6
    assert g.volume(set()) == 0
    path = parse_edge_list("0 1\n1 2\n")
    assert path.volume({1}) == 2


def test_out_of_range_ids_rejected():
    g = triangle()
    with pytest.raises(ValueError):
        g.boundary_counts({3})
    with pytest.raises(ValueError):
        g.volume({5})
    with pytest.raises(ValueError):
        as_id_array({-1}, 3)
    with pytest.raises(ValueError, match="out of range"):
        MultiGraph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError, match="out of range"):
        g.degree(-1)
    with pytest.raises(ValueError, match="out of range"):
        g.neighbors(3)
    # a float id is refused, not truncated to the vertex below it
    with pytest.raises(TypeError):
        as_id_array([2.7], 3)
    with pytest.raises(TypeError):
        g.volume([2.7])
    with pytest.raises(TypeError):
        g.boundary_counts([2.5])
    for call in (lambda: g.degree(1.5), lambda: g.neighbors(1.5),
                 lambda: g.degree(np.float64(1.0))):
        with pytest.raises(TypeError):
            call()


def test_full_set_identities_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 30))
        g = random_multigraph(rng, n, int(rng.integers(0, 60)))
        full = set(range(n))
        assert g.volume(full) == 2 * g.edge_count
        counts = g.boundary_counts(full)
        for u in range(n):
            assert boundary_count(g, u, full) == g.degree(u)
            assert counts[u] == g.degree(u)


def test_boundary_counts_matches_scalar_on_subsets():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 25))
        g = random_multigraph(rng, n, int(rng.integers(1, 50)))
        members = {int(v) for v in rng.choice(n, size=rng.integers(1, n), replace=False)}
        for subset in (members, set()):
            counts = g.boundary_counts(subset)
            for u in range(n):
                assert counts[u] == boundary_count(g, u, subset)
            # the selection step relies on these: ascending vertices, only
            # positive counts, and counts that sum to vol(B) with loops
            vertices, local, p = _boundary_law(g, as_id_array(subset, n))
            assert np.all(np.diff(vertices) > 0)
            assert np.all(local > 0)
            assert np.array_equal(local, counts[vertices])
            assert int(local.sum()) == g.volume(subset)
            if subset:
                assert p == block_probability(g, subset)


def test_write_then_parse_preserves_degrees_and_edges():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 20))
        g = random_multigraph(rng, n, int(rng.integers(n, 4 * n)))
        text = write_edge_list(g)
        h = parse_edge_list(text)
        # isolated vertices are not expressible in the format
        nonzero = sorted(int(d) for d in g.degrees if d > 0)
        assert sorted(h.degrees.tolist()) == nonzero
        assert h.edge_count == g.edge_count


def test_write_format_sorted_with_multiplicity():
    g = MultiGraph.from_edges(3, [(2, 1), (0, 1), (0, 1), (2, 2)])
    assert write_edge_list(g) == "0 1 2\n1 2 1\n2 2 1\n"


def test_simplified_drops_loops_and_multiplicity():
    g = MultiGraph.from_edges(3, [(0, 1, 4), (1, 1, 2), (1, 2)])
    s = g.simplified()
    assert s.edge_count == 2
    assert s.degrees.tolist() == [1, 2, 1]
    assert g.edge_count == 7  # original untouched


def test_csr_rows_match_the_edge_multiset():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 20))
        u = rng.integers(0, n, size=int(rng.integers(0, 60)))
        v = rng.integers(0, n, size=u.size)
        g = MultiGraph.from_pair_arrays(n, u, v, labels=[f"v{i}" for i in range(n)])
        pairs = Counter((min(a, b), max(a, b)) for a, b in zip(u.tolist(), v.tolist()))
        assert list(g.edge_classes()) == [(a, b, m) for (a, b), m in sorted(pairs.items())]
        for w in range(n):
            assert np.all(np.diff(g.neighbors(w)) > 0)
        assert g.simplified().labels == g.labels


def test_neighbors_include_loop_endpoint():
    g = MultiGraph.from_edges(3, [(0, 0), (0, 1)])
    assert set(g.neighbors(0).tolist()) == {0, 1}
    assert set(g.neighbors(2).tolist()) == set()


def test_empty_graph_and_zero_vertices():
    g = parse_edge_list("")
    assert g.n == 0 and g.edge_count == 0
    assert write_edge_list(g) == ""
    edgeless = MultiGraph.from_pair_arrays(5, [], [])
    assert edgeless.n == 5 and edgeless.edge_count == 0
    assert edgeless.degrees.tolist() == [0] * 5
    assert write_edge_list(edgeless) == ""
    assert edgeless.boundary_counts({0, 1}).tolist() == [0] * 5
