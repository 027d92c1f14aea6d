"""Multigraph construction, counting, and edge-list round trips."""

from collections import Counter

import numpy as np
import pytest

import essc.graph
from essc.bench import FIELDS, BenchmarkSpec, generate
from essc.errors import EdgeListParseError
from essc.graph import (
    MultiGraph,
    _number_by_sort,
    _number_direct,
    _parse_canonical,
    _parse_lines,
    as_id_array,
    parse_edge_list,
    write_edge_list,
)
from essc.significance import _boundary_law, block_probability

from helpers import boundary_count, csr_by_sort, random_multigraph, triangle


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


# each is a line end to `str.splitlines`, but only "\n" ends a line here,
# and `str.split` takes each as a space, so the second line has 4 tokens
@pytest.mark.parametrize(
    "char", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
    ids=lambda c: f"U+{ord(c):04X}",
)
def test_lines_end_at_newline_only(char):
    text = f"0 1 1\n0 1{char}2 3\n"
    assert _parse_canonical(text) is None
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list(text)
    assert err.value.lineno == 2
    assert str(err.value) == "line 2: expected 2 or 3 tokens, got 4"


def test_crlf_line_ends_still_parse():
    assert_same_graph(parse_edge_list("1 2 1\r\n2 3\r\n"), parse_edge_list("1 2 1\n2 3 1\n"))


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


def test_build_matches_the_sorting_oracle():
    rng = np.random.default_rng(5)
    sizes = [(0, 0), (4, 0), (1, 3)] + [
        (int(rng.integers(1, 40)), int(rng.integers(1, 120))) for _ in range(40)
    ]
    for n, k in sizes:
        # endpoints avoid the last quarter of the ids, which stay isolated;
        # few ids give loops and pairs repeated in both orientations
        u, v = rng.integers(0, n - n // 4, size=(2, k)) if k else np.empty((2, 0), dtype=np.int64)
        u, v = np.concatenate([u, v[: k // 3]]), np.concatenate([v, u[: k // 3]])
        m = np.where(rng.random(u.size) < 0.5, 1, rng.integers(1, 2**40, size=u.size))
        g = MultiGraph.from_pair_arrays(n, u, v, m)
        for got, want in zip((g._indptr, g._indices, g._data), csr_by_sort(n, u, v, m)):
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)


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


def assert_same_graph(a: MultiGraph, b: MultiGraph):
    assert a.n == b.n and a.labels == b.labels
    for name in ("_indptr", "_indices", "_data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y)


def parsed(parse, text):
    """The graph `parse` returns for `text`, or its error's line and text."""
    try:
        return parse(text)
    except EdgeListParseError as err:
        return err.lineno, str(err)


# each of these texts leaves the ``a b m`` form with canonical decimals
# somewhere, so the bulk reader declines it and the line loop decides
@pytest.mark.parametrize("text", [
    pytest.param("7 007 1\n007 7 2\n", id="leading-zero"),
    pytest.param("+5 5 1\n", id="plus-sign"),
    pytest.param("1_000 1000 1\n", id="underscore"),
    pytest.param("\u0663 3 1\n", id="arabic-indic-digit"),
    pytest.param("-1 1 1\n", id="minus-sign"),
    pytest.param("1234567890123456789 1 1\n", id="19-digit-label"),
    pytest.param("1 2 01\n", id="multiplicity-01"),
    pytest.param("1 2 1\r\n2 3 1\r\n", id="crlf"),
    pytest.param("1\t2\t1\n", id="tabs"),
    pytest.param("1  2 1\n", id="double-space"),
    pytest.param("1 2 1 \n", id="trailing-space"),
    pytest.param("1 2 1\n\n2 3 1\n", id="blank-line"),
    pytest.param("# header\n1 2 1\n", id="comment"),
    pytest.param("1 2 1\n2 3 1", id="no-final-newline"),
    pytest.param("1 2\n2 3 1\n3 1\n", id="mixed-2-and-3-tokens"),
    pytest.param("1 2 1\n2 3 0\n", id="multiplicity-0"),
    pytest.param("1 2 1\n2 3 9007199254740992\n", id="multiplicity-2**53"),
    pytest.param("1 2 1\n2 3 1 1\n", id="4-tokens"),
    pytest.param("1 2 1\n2\n", id="1-token"),
    pytest.param("1 2 1\n3 #4 1\n", id="comment-mark-label"),
])
def test_bulk_reader_declines_and_the_loop_decides(text):
    assert _parse_canonical(text) is None
    got, want = parsed(parse_edge_list, text), parsed(_parse_lines, text)
    if isinstance(want, MultiGraph):
        assert_same_graph(got, want)
    else:
        assert got == want


def test_labels_equal_as_integers_stay_distinct():
    g = parse_edge_list("7 007 1\n007 7 2\n")
    assert g.labels == ["7", "007"]
    assert g.edge_count == 3


@pytest.mark.parametrize("slice_bytes", [64, 1 << 20])
def test_bulk_reader_matches_the_loop_across_slices(slice_bytes, monkeypatch):
    monkeypatch.setattr(essc.graph, "_SLICE", slice_bytes)
    rng = np.random.default_rng(11)
    for _ in range(20):
        k = int(rng.integers(1, 200))
        u, v = rng.integers(0, 10**int(rng.integers(1, 19)), size=(2, k))
        m = rng.integers(1, 4, size=k)
        text = "".join(f"{a} {b} {c}\n" for a, b, c in zip(u.tolist(), v.tolist(), m.tolist()))
        g = _parse_canonical(text)
        assert g is not None
        assert_same_graph(g, _parse_lines(text))
        # one bad line in the last slice sends the whole file to the loop
        assert _parse_canonical(text + "1 01 1\n") is None
        assert_same_graph(parse_edge_list(text + "1 01 1\n"), _parse_lines(text + "1 01 1\n"))


def _file(u, v, m=None) -> str:
    m = [1] * len(u) if m is None else m
    return "".join(f"{a} {b} {c}\n" for a, b, c in zip(u, v, m))


def _random_file(seed: int, low: int, high: int) -> str:
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 100))
    u, v = rng.integers(low, high, size=(2, k)).tolist()
    return _file(u, v, rng.integers(1, 4, size=k).tolist())


# `_parse_canonical` numbers by direct addressing when the largest label
# is below the number of label tokens, else by sorting
@pytest.mark.parametrize("text,direct", [
    *(pytest.param(_random_file(s, 1, 60), True, id=f"skips-0-{s}") for s in range(3)),
    *(pytest.param(_random_file(s, 0, 10**18), False, id=f"18-digits-{s}") for s in range(3)),
    pytest.param("5 5 1\n", False, id="one-loop"),
    pytest.param(_file(range(49), range(1, 50)) + "99 3 1\n", True, id="largest-is-tokens-1"),
    pytest.param(_file(range(49), range(1, 50)) + "100 3 1\n", False, id="largest-is-tokens"),
])
def test_numbering_paths_agree(text, direct, monkeypatch):
    ends = np.array([int(t) for line in text.split("\n")[:-1] for t in line.split()[:2]])
    assert (ends.max() < ends.size) == direct
    ids, values = _number_by_sort(ends)
    if ends.max() < 10**6:  # the direct path's tables stay small
        got_ids, got_values = _number_direct(ends)
        assert got_ids.dtype == ids.dtype and np.array_equal(got_ids, ids)
        assert got_values.dtype == values.dtype and np.array_equal(got_values, values)
    other = "_number_by_sort" if direct else "_number_direct"
    monkeypatch.setattr(essc.graph, other, lambda ends: pytest.fail(f"took {other}"))
    assert_same_graph(_parse_canonical(text), _parse_lines(text))


_SPECS = {
    "er": dict(n=200, dbar=6),
    "config": dict(n=200, dbar=8, tau1=2.0),
    "sbm_single": dict(n=200, pi=0.2, kappa=5, theta=0.02),
    "lfr": dict(n=400, dbar=12, tau1=2.0, tau2=1.0, mu=0.2, s1=10, s2=40, rho=0.1),
    "lfr_bg": dict(n=400, dbar=12, tau1=2.0, tau2=1.0, mu=0.2, s1=10, s2=40, pi=0.6),
}


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_writer_output_takes_the_bulk_path(kind, monkeypatch):
    g, _ = generate(BenchmarkSpec(kind=kind, rng_seed=21, **_SPECS[kind]))
    text = write_edge_list(g)
    h = _parse_canonical(text)
    assert h is not None
    assert_same_graph(h, _parse_lines(text))
    monkeypatch.setattr(essc.graph, "_parse_lines", lambda text: pytest.fail("read line by line"))
    # dense ids take the direct numbering, and the build sorts no keys
    monkeypatch.setattr(np, "unique", lambda *args, **kwargs: pytest.fail("sorted by np.unique"))
    assert_same_graph(parse_edge_list(text), h)
    monkeypatch.undo()
    # h numbers vertices in first-seen order; its labels are g's ids
    ids = np.array([int(label) for label in h.labels])
    u, v, m = h._edge_arrays()
    assert_same_graph(MultiGraph.from_pair_arrays(g.n, ids[u], ids[v], m), g)


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
