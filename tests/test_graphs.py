import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandwichlab.graphs import (
    GraphFormatError,
    SimpleGraph,
    canonical_key,
    canonical_labeling,
    complement,
    complete_graph,
    cycle_graph,
    difference,
    edges_between,
    edges_inside,
    empty_graph,
    format_graph_literal,
    gnp_graph,
    graph_from_mask,
    intersection,
    is_regular,
    multi_covered_edges,
    neighborhood,
    parse_graph_literal,
    random_regular_graph,
    union,
    _bits,
    _pair_bits,
    _toggled_mask,
)


def test_complement_of_empty_is_complete():
    assert complement(empty_graph(4)) == complete_graph(4)


def test_complement_involution_random():
    rng = random.Random(1)
    for _ in range(20):
        g = gnp_graph(6, rng.random(), rng)
        assert complement(complement(g)) == g


def test_complement_of_five_cycle_is_other_five_cycle():
    c5 = cycle_graph(5)
    other = complement(c5)
    # direct pair-by-pair check: exactly the chords 1-3, 3-5, 5-2, 2-4, 4-1
    assert sorted(other.edges()) == [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]
    assert is_regular(other, 2)


def test_edges_between_complete_bipartite():
    assert edges_between(complete_graph(4), {1, 2}, {3, 4}) == 4


def test_edges_between_ordered_pairs_double_count():
    g = SimpleGraph(3, [(1, 2)])
    assert edges_between(g, {1, 2}, {1, 2}) == 2
    assert edges_inside(g, {1, 2}) == 1


def test_edges_between_five_cycle_example():
    assert edges_between(cycle_graph(5), {1}, {2, 3}) == 1


def test_edges_between_symmetry_random():
    rng = random.Random(2)
    for _ in range(50):
        g = gnp_graph(7, 0.5, rng)
        u = {v for v in g.vertices() if rng.random() < 0.5}
        w = {v for v in g.vertices() if rng.random() < 0.5}
        assert edges_between(g, u, w) == edges_between(g, w, u)


def test_multi_covered_edges_whole_vertex_set():
    g = gnp_graph(6, 0.5, random.Random(3))
    assert multi_covered_edges(g, set(g.vertices())) == set()


def test_multi_covered_edges_star():
    star = SimpleGraph(4, [(1, 2), (1, 3), (1, 4)])  # center 1, leaves 2,3,4
    assert multi_covered_edges(star, {2, 3, 4}) == {(1, 2), (1, 3), (1, 4)}


def test_multi_covered_edges_singleton():
    assert multi_covered_edges(cycle_graph(5), {1}) == set()


def test_multi_covered_bounded_by_degree_sum():
    rng = random.Random(4)
    for _ in range(100):
        g = gnp_graph(8, rng.random(), rng)
        u = {v for v in g.vertices() if rng.random() < 0.4}
        assert len(multi_covered_edges(g, u)) <= sum(g.degree(x) for x in u)


def test_difference_trivia():
    g = gnp_graph(5, 0.6, random.Random(5))
    assert difference(g, g) == empty_graph(5)
    assert difference(complete_graph(4), empty_graph(4)) == complete_graph(4)
    k = g
    extra = complement(g).edges()[0]
    f = g.with_edge(*extra)
    assert difference(f, k).edges() == [extra]


def test_difference_requires_same_n():
    with pytest.raises(ValueError):
        difference(complete_graph(4), complete_graph(5))


def test_difference_and_intersection_reconstitute():
    rng = random.Random(6)
    for _ in range(30):
        f = gnp_graph(7, 0.6, rng)
        k = gnp_graph(7, 0.5, rng)
        assert union(difference(f, k), intersection(f, k)) == f


def test_regularity_and_neighborhood():
    assert is_regular(cycle_graph(5), 2)
    assert not is_regular(complete_graph(4).without_edge(1, 2), 3)
    assert neighborhood(cycle_graph(5), {1}) == frozenset({2, 5})
    assert complete_graph(6).degree(3) == 5


def test_canonical_key_identity():
    rng = random.Random(7)
    for _ in range(30):
        g = gnp_graph(6, 0.5, rng)
        h = SimpleGraph(6, g.edges())
        assert canonical_key(g) == canonical_key(h)
        if g.edge_count() < 15:
            e = complement(g).edges()[0]
            assert canonical_key(g) != canonical_key(g.with_edge(*e))


def test_edge_mask_round_trips_through_graph_from_mask():
    """Bit i of edge_mask is the i-th pair of pair_list, the layout
    graph_from_mask reads."""
    for n in range(1, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            assert graph_from_mask(n, mask).edge_mask() == mask


@st.composite
def _graph_and_cycle(draw, max_n=12):
    """A graph and a closed sequence of at least 3 distinct vertices."""
    n = draw(st.integers(3, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    order = draw(st.permutations(range(1, n + 1)))
    return graph_from_mask(n, mask), tuple(order[:draw(st.integers(3, n))])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(g_cycle=_graph_and_cycle())
def test_toggle_flips_cycle_pairs_and_key_follows(g_cycle):
    g, cycle = g_cycle
    flipped = _toggled_mask(_pair_bits(g.n), g.edge_mask(), cycle)
    h = graph_from_mask(g.n, flipped)
    pairs = {tuple(sorted((cycle[i - 1], cycle[i]))) for i in range(len(cycle))}
    assert set(g.edges()) ^ set(h.edges()) == pairs
    assert _toggled_mask(_pair_bits(g.n), flipped, cycle) == g.edge_mask()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mask=st.integers(0, (1 << 25) - 1))
def test_bits_is_the_ascending_tuple_of_set_bits(mask):
    assert _bits(mask) == tuple(i for i in range(25) if (mask >> i) & 1)
    assert _bits(mask) is _bits(mask)  # served from the cache
    assert _bits.cache_info().maxsize is not None  # the cache is bounded


def _relabeled(g, perm):
    """g with each vertex v renamed perm[v]."""
    return SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@st.composite
def _graph_and_permutation(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    perm = draw(st.permutations(range(1, n + 1)))
    return graph_from_mask(n, mask), (0, *perm)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(g_perm=_graph_and_permutation())
def test_canonical_labeling_invariant_under_relabeling(g_perm):
    g, perm = g_perm
    cert, relabel = canonical_labeling(g)
    assert sorted(relabel) == list(range(g.n + 1))
    assert _relabeled(g, relabel).adj == cert
    h = _relabeled(g, perm)
    h_cert, h_relabel = canonical_labeling(h)
    assert h_cert == cert
    assert _relabeled(h, h_relabel).adj == cert


def _cocktail_party(k):
    return SimpleGraph(2 * k, [(u, v) for u in range(1, 2 * k + 1)
                               for v in range(u + 1, 2 * k + 1)
                               if not (u % 2 and v == u + 1)])


def _crown(k):
    """K_{k,k} minus a perfect matching."""
    return SimpleGraph(2 * k, [(i, k + j) for i in range(1, k + 1)
                               for j in range(1, k + 1) if i != j])


def _petersen():
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(5 + i, 5 + (i + 1) % 5 + 1) for i in range(1, 6)]
    return SimpleGraph(10, outer + spokes + inner)


def test_canonical_labeling_symmetric_graphs():
    """Large automorphism groups, where the search prunes most of its tree."""
    rng = random.Random(11)
    graphs = [_cocktail_party(6), _crown(7), _petersen(), cycle_graph(12),
              complement(cycle_graph(9)), complete_graph(10).without_edge(2, 7),
              empty_graph(12), SimpleGraph(12, [(4, 9)])]
    certs = set()
    for g in graphs:
        cert, relabel = canonical_labeling(g)
        certs.add(cert)
        assert _relabeled(g, relabel).adj == cert
        for _ in range(3):
            perm = [0] + rng.sample(range(1, g.n + 1), g.n)
            assert canonical_labeling(_relabeled(g, perm))[0] == cert
    assert len(certs) == len(graphs)
    # same degree sequence, not isomorphic: C6 against two triangles
    two_triangles = SimpleGraph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert canonical_labeling(cycle_graph(6))[0] != canonical_labeling(two_triangles)[0]


def test_canonical_labeling_counts_isomorphism_classes():
    """Distinct certificates over all labeled graphs: OEIS A000088."""
    for n, classes in zip(range(1, 7), (1, 2, 4, 11, 34, 156)):
        certs = {canonical_labeling(graph_from_mask(n, mask))[0]
                 for mask in range(1 << (n * (n - 1) // 2))}
        assert len(certs) == classes


def test_graph_literal_round_trip():
    g = cycle_graph(5)
    text = format_graph_literal(g)
    assert text == "n=5;edges=1-2,1-5,2-3,3-4,4-5"
    assert parse_graph_literal(text) == g
    assert parse_graph_literal("n=3;edges=") == empty_graph(3)


def test_graph_literal_rejects_garbage():
    for bad in ("n=3", "edges=1-2", "n=3;edges=1-1", "n=3;edges=1-9",
                "n=3;edges=1+2", "x=3;edges=1-2", "n=3;pairs=1-2"):
        with pytest.raises(GraphFormatError):
            parse_graph_literal(bad)


def test_vertex_count_must_be_positive():
    for n in (0, -2):
        with pytest.raises(GraphFormatError,
                           match=f"vertex count must be positive, got {n}"):
            SimpleGraph(n)


def test_no_self_loops():
    with pytest.raises(GraphFormatError):
        SimpleGraph(3, [(2, 2)])


def test_random_regular_graph_is_regular_and_varies():
    rng = random.Random(8)
    keys = set()
    for _ in range(10):
        g = random_regular_graph(8, 3, rng)
        assert is_regular(g, 3)
        keys.add(canonical_key(g))
    assert len(keys) > 1


def test_immutability_of_derived_graphs():
    g = cycle_graph(4)
    h = g.with_edge(1, 3)
    assert not g.has_edge(1, 3) and h.has_edge(1, 3)
    assert h.without_edge(1, 3) == g
