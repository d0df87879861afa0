import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sandwichlab import oracle
from sandwichlab.coupling import ModelParams, closed_form_law
from sandwichlab.graphs import (
    SimpleGraph,
    canonical_key,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    gnp_graph,
    graph_from_mask,
)
from sandwichlab.oracle import (
    DEFAULT_CACHE,
    CapacityError,
    OracleCache,
    count_extensions,
    count_extensions_with_edge,
    count_regular_spanning_subgraphs,
    count_with_edge,
    enumerate_extensions,
    enumerate_regular,
    extension_profile,
    spanning_profile,
)

from _reference import brute_force_regular_count, brute_force_subgraphs


def test_complete_host_top_degree():
    for n in (3, 4, 5, 6):
        assert count_regular_spanning_subgraphs(complete_graph(n), n - 1) == 1


def test_known_small_counts():
    assert count_regular_spanning_subgraphs(complete_graph(5), 2) == 12
    assert count_regular_spanning_subgraphs(complete_graph(6), 3) == 70


def test_counts_match_brute_force_random_hosts():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(4, 6)
        host = gnp_graph(n, rng.uniform(0.3, 0.9), rng)
        d = rng.randint(1, n - 1)
        assert count_regular_spanning_subgraphs(host, d) == \
            brute_force_regular_count(n, d, host)


def test_isolated_vertex_gives_zero():
    host = SimpleGraph(5, [(1, 2), (2, 3), (1, 3), (4, 5)])
    host = host.without_edge(4, 5)  # vertices 4, 5 isolated
    assert count_regular_spanning_subgraphs(host, 1) == 0


def test_odd_dn_returns_zero():
    assert count_regular_spanning_subgraphs(complete_graph(5), 3) == 0


def test_count_with_edge_examples():
    k5 = complete_graph(5)
    for e in k5.edges():
        assert count_with_edge(k5, 2, e) == 6
    for n in (4, 5):
        kn = complete_graph(n)
        assert count_with_edge(kn, n - 1, (1, 2)) == 1
    c5 = cycle_graph(5)
    for e in c5.edges():
        assert count_with_edge(c5, 2, e) == 1


def test_count_with_edge_requires_host_edge():
    with pytest.raises(ValueError):
        count_with_edge(cycle_graph(5), 2, (1, 3))


def test_extensions_trivia():
    n, d = 6, 3
    assert count_extensions(empty_graph(n), d) == \
        count_regular_spanning_subgraphs(complete_graph(n), d)
    assert count_extensions(complete_graph(5), 2) == 0  # max degree too high


def test_extension_with_edge_requires_non_edge():
    with pytest.raises(ValueError):
        count_extensions_with_edge(cycle_graph(5), 2, (1, 2))


def test_edge_counts_reject_vertices_outside_range():
    for e in ((7, 8), (0, 1), (1, 6)):
        with pytest.raises(ValueError, match="outside 1..5"):
            count_with_edge(complete_graph(5), 2, e)
        with pytest.raises(ValueError, match="outside 1..5"):
            count_extensions_with_edge(empty_graph(5), 2, e)


def test_complement_duality_random():
    rng = random.Random(12)
    for _ in range(30):
        f = gnp_graph(6, rng.uniform(0.2, 0.8), rng)
        d = rng.randint(1, 4)
        assert count_extensions(f, d) == \
            count_regular_spanning_subgraphs(complement(f), 6 - 1 - d)


def test_double_count_identity_random():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(4, 7)
        f = gnp_graph(n, rng.uniform(0.4, 0.9), rng)
        d = rng.randint(1, n - 1)
        total = count_regular_spanning_subgraphs(f, d)
        if total == 0:
            continue
        assert sum(count_with_edge(f, d, e) for e in f.edges()) == \
            (d * n // 2) * total


def test_edge_decomposition_identity_random():
    rng = random.Random(14)
    for _ in range(30):
        n = rng.randint(4, 7)
        f = gnp_graph(n, rng.uniform(0.4, 0.9), rng)
        d = rng.randint(1, n - 1)
        for e in f.edges()[:4]:
            assert count_regular_spanning_subgraphs(f, d) == \
                count_with_edge(f, d, e) + \
                count_regular_spanning_subgraphs(f.without_edge(*e), d)


def test_enumeration_matches_count_and_order():
    k5 = complete_graph(5)
    members = list(enumerate_regular(k5, 2))
    assert len(members) == 12
    keys = [(g.n, g.edge_mask()) for g in members]
    assert keys == sorted(keys)
    assert list(enumerate_regular(cycle_graph(5), 2)) == [cycle_graph(5)]
    assert list(enumerate_regular(complete_graph(4), 3)) == [complete_graph(4)]


def test_enumerate_extensions_contains_base():
    rng = random.Random(15)
    f = gnp_graph(6, 0.3, rng)
    exts = list(enumerate_extensions(f, 3))
    assert len(exts) == count_extensions(f, 3)
    for k in exts:
        assert f.is_subgraph_of(k)


def test_profiles_match_pointwise_counts():
    rng = random.Random(16)
    f = gnp_graph(6, 0.7, rng)
    d = 3
    total, tally = spanning_profile(f, d)
    assert total == count_regular_spanning_subgraphs(f, d)
    for e in f.edges():
        assert tally.get(e, 0) == count_with_edge(f, d, e)
    ext_total, ext_tally = extension_profile(f, d)
    assert ext_total == count_extensions(f, d)
    for e in complement(f).edges():
        assert ext_tally.get(e, 0) == count_extensions_with_edge(f, d, e)


@st.composite
def _host_and_degree(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return graph_from_mask(n, mask), draw(st.integers(0, n - 1))


def _enumerated_tally(graphs, skip=frozenset()):
    total, tally = 0, {}
    for k in graphs:
        total += 1
        for e in k.edges():
            if e not in skip:
                tally[e] = tally.get(e, 0) + 1
    return total, tally


@settings(max_examples=150, deadline=None, derandomize=True)
@given(host_d=_host_and_degree())
@example(host_d=(complete_graph(5), 0))
@example(host_d=(empty_graph(6), 0))
@example(host_d=(complete_graph(8), 3))
@example(host_d=(SimpleGraph(6, [(1, 2), (2, 3), (1, 3), (4, 5)]), 2))  # no completion
@example(host_d=(complete_graph(7), 3))  # odd dn
def test_profiles_equal_enumeration_tallies(host_d):
    host, d = host_d
    assert spanning_profile(host, d, cache=OracleCache()) == \
        _enumerated_tally(enumerate_regular(host, d))
    assert extension_profile(host, d, cache=OracleCache()) == \
        _enumerated_tally(enumerate_extensions(host, d), skip=set(host.edges()))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(host_d=_host_and_degree(max_n=6),
       picks=st.lists(st.integers(min_value=0), max_size=2))
@example(host_d=(complete_graph(6), 3), picks=[0, 14])
@example(host_d=(complete_graph(5), 3), picks=[])  # odd dn
def test_engine_matches_brute_force_subsets(host_d, picks):
    host, d = host_d
    n = host.n
    edges = host.edges()
    base = SimpleGraph(n, {edges[i % len(edges)] for i in picks} if edges else ())
    spanning = brute_force_subgraphs(n, host.edges(), [0] + [d] * n)
    extra = brute_force_subgraphs(n, complement(host).edges(),
                                  [0] + [d - host.degree(v) for v in host.vertices()])
    regular = sorted((SimpleGraph(n, s) for s in spanning), key=canonical_key)
    extended = sorted((SimpleGraph(n, host.edges() + list(s)) for s in extra),
                      key=canonical_key)
    assert count_regular_spanning_subgraphs(host, d) == len(spanning)
    assert count_extensions(host, d) == len(extra)
    for e in host.edges():
        assert count_with_edge(host, d, e) == \
            sum(e in s for s in spanning)
    assert spanning_profile(host, d, cache=OracleCache()) == _enumerated_tally(regular)
    assert extension_profile(host, d, cache=OracleCache()) == \
        _enumerated_tally(extended, skip=set(host.edges()))
    assert list(enumerate_regular(host, d)) == regular
    assert list(enumerate_extensions(host, d)) == extended
    # the family between a base and the host is the filtered class, in order
    family = [k for k in regular if base.is_subgraph_of(k)]
    assert list(oracle._enumerate(base, host, d)) == family
    assert oracle._count(base, host, d) == len(family)


@st.composite
def _host_degree_permutation(draw, max_n=8):
    host, d = draw(_host_and_degree(max_n))
    perm = draw(st.permutations(range(1, host.n + 1)))
    return host, d, (0, *perm)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_host_degree_permutation())
@example(case=(complete_graph(8).without_edge(1, 2), 3, (0, 8, 7, 6, 5, 4, 3, 2, 1)))
@example(case=(SimpleGraph(8, [(1, 2)]), 3, (0, 3, 8, 1, 2, 4, 5, 6, 7)))
def test_profile_hit_on_relabeled_host_equals_cold_query(case):
    """A cache warmed by one host serves an isomorphic copy its own profile."""
    host, d, perm = case
    copy = SimpleGraph(host.n, [(perm[u], perm[v]) for u, v in host.edges()])
    for profile in (spanning_profile, extension_profile):
        warm = OracleCache()
        profile(host, d, cache=warm)
        hits = warm.hits
        total, tally = profile(copy, d, cache=warm)
        assert warm.hits == hits + 1
        cold_total, cold_tally = profile(copy, d, cache=OracleCache())
        assert total == cold_total
        assert list(tally.items()) == list(cold_tally.items())
        assert list(tally) == sorted(tally)


def test_cache_hits_and_bound():
    cache = OracleCache(maxsize=4)
    g = complete_graph(5)
    spanning_profile(g, 2, cache=cache)
    assert cache.misses == 1 and cache.hits == 0
    spanning_profile(g, 2, cache=cache)
    assert cache.hits == 1
    for d in (0, 1, 2, 3, 4):
        spanning_profile(complete_graph(6), d, cache=cache)
    assert len(cache) <= 4


def _brute_force_profile(profile, g, d):
    """(total, per-edge counts) of the profile by filtering edge subsets."""
    n = g.n
    if profile is spanning_profile:
        pairs, target = g.edges(), [0] + [d] * n
    else:
        pairs = complement(g).edges()
        target = [0] + [d - g.degree(v) for v in g.vertices()]
    found = brute_force_subgraphs(n, pairs, target)
    tally = {}
    for chosen in found:
        for e in chosen:
            tally[e] = tally.get(e, 0) + 1
    return len(found), dict(sorted(tally.items()))


@st.composite
def _profile_queries(draw):
    """Profile queries on small searched graphs (at most 14 edges, so the
    brute force stays cheap), some of them relabeled copies of earlier ones
    or one move away from the last.
    The searched graph is the host of a spanning profile and the complement
    of an extension profile's partial graph."""
    queries = []
    for _ in range(draw(st.integers(1, 8))):
        step = draw(st.sampled_from(("new", "relabel", "move"))) if queries else "new"
        if step == "relabel":
            profile, g, d = draw(st.sampled_from(queries))
            perm = (0, *draw(st.permutations(range(1, g.n + 1))))
            g = SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        elif step == "move":
            # a move of the coupled processes: delete a host edge, or add a
            # non-edge to the partial graph
            profile, g, d = queries[-1]
            searched = g if profile is spanning_profile else complement(g)
            if not searched.edge_count():
                continue
            u, v = draw(st.sampled_from(searched.edges()))
            g = g.without_edge(u, v) if profile is spanning_profile else g.with_edge(u, v)
        else:
            n = draw(st.integers(1, 8))
            # a Hamiltonian cycle plus random pairs, so that 2-regular
            # subgraphs exist and most queries have something to count
            order = draw(st.permutations(range(1, n + 1)))
            edges = list(zip(order, order[1:] + order[:1])) if n >= 3 else []
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            if pairs:
                edges += draw(st.lists(st.sampled_from(pairs), max_size=14 - len(edges)))
            searched = SimpleGraph(n, edges)
            profile = draw(st.sampled_from((spanning_profile, extension_profile)))
            g = searched if profile is spanning_profile else complement(searched)
            d = draw(st.integers(0, n - 1))
        queries.append((profile, g, d))
    return queries


@settings(max_examples=150, deadline=None, derandomize=True)
@given(queries=_profile_queries())
def test_warm_cache_serves_interleaved_profiles(queries):
    """One cache, its state table shared by every search, answers each query
    as a cold cache and the brute force do."""
    warm = OracleCache()
    for profile, g, d in queries:
        total, tally = profile(g, d, cache=warm)
        cold_total, cold_tally = profile(g, d, cache=OracleCache())
        assert total == cold_total
        assert list(tally.items()) == list(cold_tally.items())
        assert (total, tally) == _brute_force_profile(profile, g, d)


def _upper_walk(n, d, rng):
    """The hosts K_n, K_n - e1, ... of a deletion walk down to dn/2 edges."""
    g = complete_graph(n)
    while g.edge_count() > n * d // 2:
        yield g
        g = g.without_edge(*rng.choice(g.edges()))


def test_clear_empties_profiles_and_states():
    cache = OracleCache()
    for g in _upper_walk(7, 2, random.Random(17)):
        spanning_profile(g, 2, cache=cache)
        extension_profile(complement(g), 2, cache=cache)
    spanning_profile(complete_graph(7), 2, cache=cache)
    assert len(cache) and cache.hits and cache.misses and cache.states
    cache.clear()
    assert (len(cache), cache.hits, cache.misses, cache.states) == (0, 0, 0, 0)
    assert not cache._suffixes


def test_state_budget_is_kept_and_answers_survive_the_drop(monkeypatch):
    budget = 40
    monkeypatch.setattr(oracle, "MAX_STATES", budget)
    cache = OracleCache()
    rng = random.Random(18)
    drops = 0
    for n, d in ((8, 3), (7, 2), (8, 2), (6, 3)):
        for g in _upper_walk(n, d, rng):
            for profile, host in ((spanning_profile, g),
                                  (extension_profile, complement(g))):
                before = cache.states
                assert profile(host, d, cache=cache) == \
                    profile(host, d, cache=OracleCache())
                assert cache.states <= budget
                assert cache.states == sum(map(len, cache._suffixes.values()))
                drops += cache.states < before
    assert drops


def test_counts_bypass_the_cache():
    """Only edge profiles are cached: counts and the closed-form laws built
    from them neither read nor fill DEFAULT_CACHE, its state table included."""
    state = lambda: (len(DEFAULT_CACHE), DEFAULT_CACHE.hits, DEFAULT_CACHE.misses,
                     DEFAULT_CACHE.states)
    before = state()
    params = ModelParams(n=5, d=2)
    for direction in ("delete", "add"):
        closed_form_law(params, 2, direction)
    host = cycle_graph(5)
    count_regular_spanning_subgraphs(host, 2)
    count_with_edge(host, 2, (1, 2))
    count_extensions(host.without_edge(1, 2), 2)
    count_extensions_with_edge(host.without_edge(1, 2), 2, (1, 2))
    assert state() == before


def test_capacity_error():
    with pytest.raises(CapacityError):
        count_regular_spanning_subgraphs(complete_graph(30), 3)
