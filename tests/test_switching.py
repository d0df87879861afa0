import random
import re
from collections import Counter

import pytest

from sandwichlab import oracle, switching
from sandwichlab.graphs import (
    SimpleGraph,
    canonical_key,
    complement,
    complete_graph,
    cycle_graph,
    difference,
    gnp_graph,
    is_regular,
    parse_graph_literal,
    random_regular_graph,
)
from sandwichlab.oracle import enumerate_extensions, enumerate_regular
from sandwichlab.switching import (
    _lef_source,
    _ten_source,
    alternating_paths,
    build_le_graph,
    build_lef_graph,
    build_six_cycle_graph,
    build_ten_cycle_graph,
    count_alternating,
    six_cycle_statistic,
    six_cycle_switches,
    switch_neighbors_le,
    switch_neighbors_le_absent,
    switch_neighbors_lef,
    ten_cycle_switches,
    verify_double_count,
    weighted_endpoint_sum,
)

from _reference import (
    brute_force_alternating_paths,
    mitm_alternating_count,
    six_cycle_switch_graphs,
    switching_graph_reference,
    two_path_switch_graphs,
)


def test_forced_single_path():
    f = SimpleGraph(4, [(1, 2)])
    k = SimpleGraph(4, [(2, 3)])
    assert count_alternating(f, k, 1, 2, y=3) == 1


def test_avoid_set_blocks_last_internal_vertex():
    f = SimpleGraph(4, [(1, 2)])
    k = SimpleGraph(4, [(2, 3)])
    assert count_alternating(f, k, 1, 2, y=3, avoid={2}) == 0


def test_empty_difference_gives_zero():
    k = cycle_graph(6)
    assert count_alternating(k, k, 1, 4) == 0


def test_avoid_must_exclude_endpoints():
    f = gnp_graph(6, 0.5, random.Random(0))
    k = gnp_graph(6, 0.5, random.Random(1))
    with pytest.raises(ValueError):
        count_alternating(f, k, 1, 2, y=2, avoid={1})


def test_partition_identity_endpoints():
    rng = random.Random(21)
    for _ in range(20):
        f = gnp_graph(8, 0.6, rng)
        k = gnp_graph(8, 0.4, rng)
        x = rng.randint(1, 8)
        for ell in (1, 2):
            total = count_alternating(f, k, x, 2 * ell)
            split = sum(count_alternating(f, k, x, 2 * ell, y=y)
                        for y in range(1, 9) if y != x)
            assert total == split


def test_weighted_endpoint_sum_base_case():
    rng = random.Random(22)
    f = gnp_graph(8, 0.6, rng)
    k = gnp_graph(8, 0.4, rng)
    fk = difference(f, k)
    for v in range(1, 9):
        assert weighted_endpoint_sum(f, k, v, 1) == \
            sum(fk.degree(u) for u in k.neighbors(v))
    assert weighted_endpoint_sum(k, k, 3, 2) == 0


def test_weighted_endpoint_sum_recomputation():
    # recompute via explicit path enumeration through the public counter
    rng = random.Random(23)
    f = gnp_graph(8, 0.55, rng)
    k = gnp_graph(8, 0.45, rng)
    fk = difference(f, k)
    v = 1
    for i in (1, 2):
        by_endpoint = 0
        for u in range(1, 9):
            if u == v:
                continue
            paths = count_alternating(f, k, v, 2 * i - 1, y=u, start_in_k=True)
            by_endpoint += paths * fk.degree(u)
        assert weighted_endpoint_sum(f, k, v, i) == by_endpoint


def test_dual_enumerator_agreement_sample():
    rng = random.Random(24)
    for _ in range(60):
        n = rng.randint(6, 10)
        f = gnp_graph(n, rng.uniform(0.3, 0.7), rng)
        k = gnp_graph(n, rng.uniform(0.2, 0.6), rng)
        x, y = rng.sample(range(1, n + 1), 2)
        ell = rng.randint(1, 3)
        avoid = {v for v in range(1, n + 1) if v not in (x, y)
                 and rng.random() < 0.15}
        mine = count_alternating(f, k, x, 2 * ell, y=y, avoid=avoid)
        ref = mitm_alternating_count(f, k, x, y, 2 * ell, avoid)
        assert mine == ref


def test_short_paths_to_a_fixed_endpoint_match_the_join():
    # at length 2 the vertex before y is the first one drawn, from y's row
    rng = random.Random(35)
    nonzero = 0
    for _ in range(60):
        f = gnp_graph(10, rng.uniform(0.3, 0.7), rng)
        k = gnp_graph(10, rng.uniform(0.2, 0.6), rng)
        x, y = rng.sample(range(1, 11), 2)
        avoid = {v for v in range(1, 11) if v not in (x, y)
                 and rng.random() < 0.15}
        for length in (1, 2):
            for start_in_k in (False, True):
                mine = count_alternating(f, k, x, length, y=y, avoid=avoid,
                                         start_in_k=start_in_k)
                assert mine == mitm_alternating_count(f, k, x, y, length,
                                                      avoid, start_in_k)
                nonzero += mine > 0
    assert nonzero


def test_alternating_paths_equal_the_brute_force_in_order():
    # the walk prunes from both ends; the paths and their order must be those
    # of trying every sequence of interior vertices
    rng = random.Random(37)
    found = Counter()
    for _ in range(16):
        n = rng.randint(6, 8)
        f = gnp_graph(n, rng.uniform(0.4, 0.8), rng)
        k = gnp_graph(n, rng.uniform(0.2, 0.5), rng)
        fk, k_edges = set(difference(f, k).edges()), set(k.edges())
        x, y = rng.sample(range(1, n + 1), 2)
        avoid = {v for v in range(1, n + 1) if v not in (x, y) and rng.random() < 0.2}
        ends = [z for z in range(1, n + 1) if z != x and z not in avoid]
        for length in range(1, 6):
            for start_in_k in (False, True):
                odd, even = (k_edges, fk) if start_in_k else (fk, k_edges)
                got = list(alternating_paths(f, k, x, length, y, avoid, start_in_k))
                assert got == brute_force_alternating_paths(n, odd, even, x, y,
                                                            length, avoid)
                # with no fixed end: the paths to every allowed end, in one
                # lexicographic order
                free = list(alternating_paths(f, k, x, length, avoid=avoid,
                                              start_in_k=start_in_k))
                assert free == sorted(
                    path for z in ends
                    for path in brute_force_alternating_paths(n, odd, even, x, z,
                                                              length, avoid))
                found[length] += len(got)
    assert all(found[length] for length in range(1, 6)), found


def _rich_host(rng, n, d, extras):
    base = random_regular_graph(n, d, rng)
    host = base
    for e in rng.sample(complement(base).edges(), extras):
        host = host.with_edge(*e)
    return host


def test_le_switches_cycle_too_long_gives_empty():
    rng = random.Random(26)
    host = _rich_host(rng, 6, 3, 3)
    k = next(iter(enumerate_regular(host, 3)))
    e = k.edges()[0]
    assert switch_neighbors_le(host, 3, k, e, ell=4) == []  # 2l+2 = 10 > 6


def test_le_switch_outputs_and_involution():
    rng = random.Random(27)
    host = _rich_host(rng, 8, 3, 4)
    members = list(enumerate_regular(host, 3))
    k = members[0]
    e = k.edges()[0]
    for ell in (1, 2):
        nbrs = switch_neighbors_le(host, 3, k, e, ell)
        assert len(nbrs) == count_alternating(
            host, k, e[0], 2 * ell + 1, y=e[1])
        for kp in nbrs:
            assert is_regular(kp, 3)
            assert kp.is_subgraph_of(host)
            assert not kp.has_edge(*e)
            # the reverse switch through the same cycle recovers k
            back = switch_neighbors_le_absent(host, 3, kp, e, ell)
            assert any(b == k for b in back)


def test_le_double_count_full_classes():
    rng = random.Random(28)
    host = _rich_host(rng, 8, 3, 4)
    members = list(enumerate_regular(host, 3))
    k = members[0]
    e = k.edges()[0]
    graph = build_le_graph(host, 3, e, ell=2)
    report = verify_double_count(graph)
    assert report["passed"], report
    assert report["left_sum"] == report["edges"] == report["right_sum"]


def test_lef_preconditions():
    rng = random.Random(29)
    host = _rich_host(rng, 8, 3, 4)
    k = next(iter(enumerate_regular(host, 3)))
    e = k.edges()[0]
    bad_f = e
    with pytest.raises(ValueError):
        switch_neighbors_lef(host, 3, k, e, bad_f, 1)


def test_lef_small_n_empty():
    rng = random.Random(30)
    host = _rich_host(rng, 6, 3, 3)
    k = next(iter(enumerate_regular(host, 3)))
    e = k.edges()[0]
    f_edge = next(fe for fe in difference(host, k).edges()
                  if not set(fe) & set(e))
    assert switch_neighbors_lef(host, 3, k, e, f_edge, 1) == []  # 4l+6 = 10 > 6


def test_switch_neighbors_refuse_k_outside_the_host():
    host = complete_graph(6).without_edge(5, 6)
    k = SimpleGraph(6, [(1, 2), (5, 6)])
    cases = (lambda: switch_neighbors_le(host, 1, k, (1, 2), 1),
             lambda: switch_neighbors_le_absent(host, 1, k, (3, 4), 1),
             lambda: switch_neighbors_lef(host, 1, k, (1, 2), (3, 4), 1))
    for call in cases:
        with pytest.raises(ValueError, match="K must be a subgraph of the host"):
            call()


def test_switch_neighbors_refuse_k_not_d_regular():
    # C6 is 2-regular, so every call below names d = 3 wrongly
    k6 = complete_graph(6)
    c6 = cycle_graph(6)
    partial = c6.without_edge(1, 2).without_edge(3, 4)
    assert len(switch_neighbors_le(k6, 2, c6, (1, 2), 1)) == 4
    cases = (lambda: switch_neighbors_le(k6, 3, c6, (1, 2), 1),
             lambda: switch_neighbors_le_absent(k6, 3, c6, (1, 3), 1),
             lambda: switch_neighbors_lef(k6, 3, c6, (1, 2), (3, 5), 1),
             lambda: ten_cycle_switches(partial, 3, c6, (1, 2), (3, 6)))
    for call in cases:
        with pytest.raises(ValueError, match="K must be d-regular"):
            call()


def test_six_cycle_graph_refuses_mixed_vertex_counts():
    with pytest.raises(ValueError, match="left members must share one vertex count"):
        build_six_cycle_graph(2, (1, 2), "two-in", [cycle_graph(6), cycle_graph(7)])


# a 2-regular K inside a host missing 1-4 and 3-6, the K lacking 1-2 that
# le_absent starts from, and K less 1-2 and 3-4 as the ten-cycle partial graph
_C6 = SimpleGraph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
_C6_HOST = complete_graph(6).without_edge(1, 4).without_edge(3, 6)
_C6_WITHOUT_12 = SimpleGraph(6, [(1, 3), (3, 4), (2, 4), (2, 5), (5, 6), (1, 6)])
_C6_PARTIAL = _C6.without_edge(1, 2).without_edge(3, 4)

# each kind's neighbor lists and builder, from valid default arguments
_KIND_READERS = {
    "le": lambda e=(1, 2), ell=1: [
        lambda: switch_neighbors_le(_C6_HOST, 2, _C6, e, ell),
        lambda: switch_neighbors_le_absent(_C6_HOST, 2, _C6_WITHOUT_12, e, ell),
        lambda: build_le_graph(_C6_HOST, 2, e, ell)],
    "lef": lambda e=(1, 2), f_edge=(3, 5), ell=1: [
        lambda: switch_neighbors_lef(_C6_HOST, 2, _C6, e, f_edge, ell),
        lambda: build_lef_graph(_C6_HOST, 2, e, f_edge, ell)],
    "ten": lambda e=(1, 2), f_edge=(3, 6): [
        lambda: ten_cycle_switches(_C6_PARTIAL, 2, _C6, e, f_edge),
        lambda: build_ten_cycle_graph(_C6_PARTIAL, 2, e, f_edge)],
    "six": lambda wprime=(1, 2), mode="two-in": [
        lambda: six_cycle_switches(_C6, wprime, mode),
        lambda: six_cycle_switches(_C6, wprime, mode, reverse=True),
        lambda: build_six_cycle_graph(2, wprime, mode, [_C6])],
}


# a K that misses the partial graph, lacks e, or holds f
@pytest.mark.parametrize("call, message", [
    (lambda: ten_cycle_switches(_C6_PARTIAL, 2, _C6_WITHOUT_12, (1, 2), (3, 6)),
     "the partial graph must lie inside K"),
    (lambda: switch_neighbors_le(_C6_HOST, 2, _C6_WITHOUT_12, (1, 2), 1),
     "e must be an edge of K"),
    (lambda: switch_neighbors_lef(_C6_HOST, 2, _C6, (1, 2), (4, 5), 1),
     "f must be absent from K"),
], ids=["partial", "has-e", "lacks-f"])
def test_switch_neighbors_refuse_k_against_its_edges(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("kind, bad, message", [
    ("le", {"e": (1, 4)}, "e must be an edge of the host"),
    ("le", {"ell": 0}, "ell must be positive"),
    ("le", {"e": (-1, 2)}, "vertex -1 outside 1..6"),
    ("le", {"e": (98, 99)}, "vertex 98 outside 1..6"),
    ("lef", {"e": (1, 4)}, "e must be an edge of the host"),
    ("lef", {"f_edge": (3, 6)}, "f must be an edge of the host"),
    ("lef", {"f_edge": (2, 4)}, "e and f must share no vertices"),
    ("lef", {"ell": 0}, "ell must be positive"),
    ("lef", {"f_edge": (5, 7)}, "vertex 7 outside 1..6"),
    ("ten", {"e": (4, 5)}, "e and f must be absent from the partial graph"),
    ("ten", {"f_edge": (2, 4)}, "e and f must share no vertices"),
    ("ten", {"e": (0, 2)}, "vertex 0 outside 1..6"),
    ("ten", {"f_edge": (98, 99)}, "vertex 98 outside 1..6"),
    ("six", {"wprime": {1, 99}}, "vertex 99 outside 1..6"),
    ("six", {"wprime": {-1, 2}}, "vertex -1 outside 1..6"),
    ("six", {"mode": "bogus"}, "unknown mode 'bogus'"),
])
def test_readers_of_one_kind_refuse_a_bad_argument_alike(kind, bad, message):
    # an out-of-range vertex must not wrap (negative shift count), index past
    # the rows (IndexError) or drop out of W' silently
    for call in _KIND_READERS[kind]():
        call()  # the default arguments are valid
    for call in _KIND_READERS[kind](**bad):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_six_cycle_statistic_no_touching_edges():
    k = SimpleGraph(8, [(5, 6), (6, 7), (5, 7)])
    w = {1, 2}
    assert len(six_cycle_switches(k, w, "two-in")) == 0
    assert len(six_cycle_switches(k, w, "one-in")) == 0


def test_six_cycle_switches_move_statistic_by_one():
    rng = random.Random(31)
    for trial in range(10):
        k = random_regular_graph(8, 3, rng)
        w = set(rng.sample(range(1, 9), 3))
        for mode in ("two-in", "one-in"):
            base = six_cycle_statistic(k, w, mode)
            for kp in six_cycle_switches(k, w, mode):
                assert is_regular(kp, 3)
                assert six_cycle_statistic(kp, w, mode) == base - 1
            for kp in six_cycle_switches(k, w, mode, reverse=True):
                assert is_regular(kp, 3)
                assert six_cycle_statistic(kp, w, mode) == base + 1


def test_six_cycle_switches_match_tuple_enumeration():
    rng = random.Random(34)
    members = list(enumerate_regular(complete_graph(8), 3))
    cases = [(k, set(rng.sample(range(1, 9), rng.randint(2, 4))))
             for k in rng.sample(members, 12)]
    for d in (3, 4):
        k = random_regular_graph(10, d, rng)
        cases += [(k, set(rng.sample(range(1, 11), size)))
                  for size in range(1, 6)]
    for k, w in cases:
        for mode in ("two-in", "one-in"):
            for reverse in (False, True):
                got = Counter(tuple(kp.adj) for kp in
                              six_cycle_switches(k, w, mode, reverse=reverse))
                want = six_cycle_switch_graphs(k, w, mode, reverse=reverse)
                assert got == Counter(want)


def test_six_cycle_double_count_full_class_n6():
    w = {1, 2, 3}
    members = list(enumerate_regular(complete_graph(6), 3))
    for mode in ("two-in", "one-in"):
        values = sorted({six_cycle_statistic(k, w, mode) for k in members})
        target = values[-1]
        left = [k for k in members if six_cycle_statistic(k, w, mode) == target]
        graph = build_six_cycle_graph(3, w, mode, left)
        report = verify_double_count(graph)
        assert report["passed"], report


def test_ten_cycle_small_n_is_zero():
    rng = random.Random(32)
    k = random_regular_graph(8, 3, rng)
    f = k.without_edge(*k.edges()[0])
    e = next(fe for fe in complement(f).edges() if k.has_edge(*fe))
    f_edge = next(fe for fe in complement(k).edges() if not set(fe) & set(e))
    assert len(ten_cycle_switches(f, 3, k, e, f_edge)) == 0


def _ten_cycle_instance(seed):
    rng = random.Random(seed)
    while True:
        k = random_regular_graph(10, 3, rng)
        drop = rng.sample(k.edges(), 6)
        f = k
        for e in drop:
            f = f.without_edge(*e)
        e = drop[0]
        partners = [fe for fe in complement(k).edges() if not set(fe) & set(e)]
        if not partners:
            continue
        f_edge = partners[rng.randrange(len(partners))]
        return f, k, e, f_edge


def test_ten_cycle_outputs_valid():
    found_nonempty = False
    for seed in range(40):
        f, k, e, f_edge = _ten_cycle_instance(seed)
        outs = ten_cycle_switches(f, 3, k, e, f_edge)
        for kp in outs:
            assert is_regular(kp, 3)
            assert f.with_edge(*f_edge).is_subgraph_of(kp)
            assert not kp.has_edge(*e)
        if outs:
            found_nonempty = True
            break
    assert found_nonempty, "no ten-cycle instance produced any switch"


def test_two_path_switches_match_sequence_enumeration():
    rng = random.Random(36)
    found = Counter()
    for _ in range(12):
        k = random_regular_graph(10, 3, rng)
        host = k
        for pair in rng.sample(complement(k).edges(), 20):
            host = host.with_edge(*pair)
        e = rng.choice(k.edges())
        f_edge = rng.choice([fe for fe in difference(host, k).edges()
                             if not set(fe) & set(e)])
        fk_edges, k_edges = set(difference(host, k).edges()), set(k.edges())
        for ell in (1, 2):
            got = Counter(tuple(kp.adj) for kp in
                          switch_neighbors_lef(host, 3, k, e, f_edge, ell))
            want = two_path_switch_graphs(k, fk_edges, k_edges, e, f_edge,
                                          2 * ell + 2)
            assert got == Counter(want)
            found["lef", ell] += len(want)
    for seed in range(30):
        f, k, e, f_edge = _ten_cycle_instance(seed)
        got = Counter(tuple(kp.adj) for kp in
                      ten_cycle_switches(f, 3, k, e, f_edge))
        want = two_path_switch_graphs(k, set(complement(k).edges()),
                                      set(difference(k, f).edges()), e, f_edge, 4)
        assert got == Counter(want)
        found["ten"] += len(want)
    assert found["lef", 1] and found["ten"], found
    assert found["lef", 2] == 0  # 4l+6 = 14 > 10 vertices


def test_ten_cycle_double_count():
    checked = 0
    for seed in range(60):
        f, k, e, f_edge = _ten_cycle_instance(seed)
        graph = build_ten_cycle_graph(f, 3, e, f_edge)
        report = verify_double_count(graph)
        assert report["passed"], report
        if report["edges"]:
            checked += 1
        if checked >= 3:
            break
    assert checked >= 3, "too few instances with nonzero switchings"


def test_verify_double_count_negative_control():
    rng = random.Random(33)
    host = _rich_host(rng, 8, 3, 4)
    k = next(iter(enumerate_regular(host, 3)))
    graph = build_le_graph(host, 3, k.edges()[0], ell=2)
    if graph.left:
        graph.left_degrees[graph.left[0]] = graph.left_degrees.get(graph.left[0], 0) + 1
        report = verify_double_count(graph)
        assert not report["passed"]


def test_repeated_left_member_counts_once():
    w = {1, 2, 3}
    k = next(k for k in enumerate_regular(complete_graph(8), 3)
             if len(six_cycle_switches(k, w, "two-in")))
    once = build_six_cycle_graph(3, w, "two-in", [k])
    twice = build_six_cycle_graph(3, w, "two-in", [k, k])
    assert twice == once
    assert verify_double_count(twice)["passed"]


def test_six_cycle_graph_checks_mode_and_degree_before_the_family():
    # the mode is checked even when the family is empty
    with pytest.raises(ValueError, match="unknown mode"):
        verify_double_count(build_six_cycle_graph(3, {1, 99}, "bogus", []))
    with pytest.raises(ValueError, match="3-regular"):
        build_six_cycle_graph(3, {1, 2}, "two-in", [cycle_graph(6)])


def _assert_same_switching_graph(got, want):
    assert got == want
    # dict order is part of what a report shows
    assert list(got.left_degrees.items()) == list(want.left_degrees.items())
    assert list(got.right_degrees.items()) == list(want.right_degrees.items())


def test_builders_match_graph_keyed_reference():
    """Each builder keys outputs by toggling keys; the reference builds and
    keys every switched graph through the public switch functions."""
    host = _rich_host(random.Random(27), 8, 3, 4)
    members = list(enumerate_regular(host, 3))
    for ell in (1, 2):
        nonzero = 0
        for e in host.edges():
            want = switching_graph_reference(
                "le", [k for k in members if k.has_edge(*e)],
                lambda k: switch_neighbors_le(host, 3, k, e, ell),
                lambda k: switch_neighbors_le_absent(host, 3, k, e, ell),
                {"e": e, "ell": ell})
            _assert_same_switching_graph(build_le_graph(host, 3, e, ell), want)
            nonzero += bool(want.edges)
        assert nonzero

    host10 = parse_graph_literal(
        "n=10;edges=1-2,1-4,1-6,1-8,1-9,1-10,2-3,2-5,2-7,2-9,2-10,3-5,"
        "3-8,3-9,4-7,4-8,4-9,5-6,5-7,6-7,6-8,6-10,9-10")
    e, f_edge = (1, 8), (2, 3)
    want = switching_graph_reference(
        "lef", [k for k in enumerate_regular(host10, 3)
                if k.has_edge(*e) and not k.has_edge(*f_edge)],
        lambda k: switch_neighbors_lef(host10, 3, k, e, f_edge, 1),
        lambda k: switch_neighbors_lef(host10, 3, k, f_edge, e, 1),
        {"e": e, "f": f_edge, "ell": 1})
    assert want.edges
    _assert_same_switching_graph(build_lef_graph(host10, 3, e, f_edge, 1), want)

    checked = 0
    for seed in range(60):
        f, _, e, f_edge = _ten_cycle_instance(seed)
        e, f_edge = tuple(sorted(e)), tuple(sorted(f_edge))
        want = switching_graph_reference(
            "ten", [k for k in enumerate_extensions(f.with_edge(*e), 3)
                    if not k.has_edge(*f_edge)],
            lambda k: ten_cycle_switches(f, 3, k, e, f_edge),
            lambda k: ten_cycle_switches(f, 3, k, f_edge, e),
            {"e": e, "f": f_edge})
        _assert_same_switching_graph(build_ten_cycle_graph(f, 3, e, f_edge), want)
        checked += bool(want.edges)
        if checked >= 2:
            break
    assert checked >= 2

    rng = random.Random(35)
    sample = rng.sample(list(enumerate_regular(complete_graph(8), 3)), 400)
    w = {2, 5, 7}
    for mode in ("two-in", "one-in"):
        stats = {}
        for k in sample:
            stats.setdefault(six_cycle_statistic(k, w, mode), []).append(k)
        value, family = max(stats.items(), key=lambda kv: len(kv[1]))
        want = switching_graph_reference(
            f"six-{mode}", family,
            lambda k: six_cycle_switches(k, w, mode),
            lambda k: six_cycle_switches(k, w, mode, reverse=True),
            {"wprime": sorted(w), "mode": mode, "stat": value})
        assert want.edges
        _assert_same_switching_graph(build_six_cycle_graph(3, w, mode, family), want)


def test_builders_build_only_their_family(monkeypatch):
    """On the reference test's instances, every subgraph the oracle yields
    during a build is a left member: no class member is built and dropped."""
    yielded = 0
    subgraphs = oracle._subgraphs

    def counted(*args):
        nonlocal yielded
        for edges in subgraphs(*args):
            yielded += 1
            yield edges
    monkeypatch.setattr(oracle, "_subgraphs", counted)

    def build(builder, *args):
        nonlocal yielded
        yielded = 0
        graph = builder(*args)
        assert yielded == len(graph.left)
        return graph

    host = _rich_host(random.Random(27), 8, 3, 4)
    for ell in (1, 2):
        for e in host.edges():
            build(build_le_graph, host, 3, e, ell)
    host10 = parse_graph_literal(
        "n=10;edges=1-2,1-4,1-6,1-8,1-9,1-10,2-3,2-5,2-7,2-9,2-10,3-5,"
        "3-8,3-9,4-7,4-8,4-9,5-6,5-7,6-7,6-8,6-10,9-10")
    build(build_lef_graph, host10, 3, (1, 8), (2, 3), 1)
    checked = 0
    for seed in range(60):
        f, _, e, f_edge = _ten_cycle_instance(seed)
        checked += bool(build(build_ten_cycle_graph, f, 3, e, f_edge).edges)
        if checked >= 2:
            break


def _assert_no_member_switches(got, want, members, can_switch):
    # the family bound says no member can switch, so none is walked; the
    # graph is still the reference's, every left member at degree 0 in order
    assert members and not can_switch(members)
    _assert_same_switching_graph(got, want)
    assert list(got.left_degrees.items()) == [(canonical_key(k), 0) for k in members]
    assert got.right == [] and got.edges == [] and verify_double_count(got)["passed"]


def test_ten_family_with_a_spent_f_endpoint_cannot_switch():
    # an endpoint of f with no residual degree in F+e has no K\F edge, in any
    # member, for a path's last edge
    for seed in range(200):
        f, _, e, f_edge = _ten_cycle_instance(seed)
        if any(f.degree(v) == 3 for v in f_edge):
            break
    else:
        pytest.fail("no ten instance with a spent f endpoint")
    e, f_edge = tuple(sorted(e)), tuple(sorted(f_edge))
    members = [k for k in enumerate_extensions(f.with_edge(*e), 3)
               if not k.has_edge(*f_edge)]
    want = switching_graph_reference(
        "ten", members,
        lambda k: ten_cycle_switches(f, 3, k, e, f_edge),
        lambda k: ten_cycle_switches(f, 3, k, f_edge, e),
        {"e": e, "f": f_edge})
    _assert_no_member_switches(build_ten_cycle_graph(f, 3, e, f_edge), want,
                               members, _ten_source(f, e, f_edge)[1])


def test_lef_family_with_a_spent_e_endpoint_cannot_switch():
    # an endpoint of e with host degree d has no F\K edge, in any member, for
    # a path's first edge, so neither pairing can be reached
    rng = random.Random(38)
    for _ in range(100):
        k = random_regular_graph(10, 3, rng)
        e = rng.choice(k.edges())
        extras = rng.sample([p for p in complement(k).edges() if e[0] not in p], 10)
        host = SimpleGraph(10, k.edges() + extras)
        f_edge = next((p for p in extras if not set(p) & set(e)), None)
        members = [m for m in enumerate_regular(host, 3)
                   if f_edge and m.has_edge(*e) and not m.has_edge(*f_edge)]
        if len(members) > 1:
            break
    else:
        pytest.fail("no lef instance with a spent e endpoint")
    want = switching_graph_reference(
        "lef", members,
        lambda k: switch_neighbors_lef(host, 3, k, e, f_edge, 1),
        lambda k: switch_neighbors_lef(host, 3, k, f_edge, e, 1),
        {"e": e, "f": f_edge, "ell": 1})
    _assert_no_member_switches(build_lef_graph(host, 3, e, f_edge, 1), want,
                               members, _lef_source(host, e, f_edge, 1)[1])


def test_six_cycle_double_counts_that_switch():
    """Families with switchings in both modes, beside the n=6 |W'|=3 case
    (where neither mode has any)."""
    members6 = list(enumerate_regular(complete_graph(6), 3))
    family = [k for k in members6 if six_cycle_statistic(k, {1, 2}, "two-in") == 1]
    report = verify_double_count(build_six_cycle_graph(3, {1, 2}, "two-in", family))
    assert (len(family), report["edges"]) == (42, 96) and report["passed"], report
    members8 = list(enumerate_regular(complete_graph(8), 3))
    w = {1, 4, 6}
    for mode in ("two-in", "one-in"):
        stats = {}
        for k in members8:
            stats.setdefault(six_cycle_statistic(k, w, mode), []).append(k)
        value = max((v for v in stats if v > 0), key=lambda v: len(stats[v]))
        report = verify_double_count(build_six_cycle_graph(3, w, mode, stats[value]))
        assert report["edges"] > 0 and report["passed"], report


def test_six_builder_matches_the_tuple_enumeration():
    """build_six_cycle_graph against switching_graph_reference fed the
    brute-force six-cycle switchings, not the package's six walk."""
    def reference(family, w, mode, value):
        def switched(reverse):
            return lambda k: [SimpleGraph._from_rows(k.n, rows) for rows in
                              six_cycle_switch_graphs(k, w, mode, reverse)]
        return switching_graph_reference(
            f"six-{mode}", family, switched(False), switched(True),
            {"wprime": sorted(w), "mode": mode, "stat": value})

    cases = []
    members6 = list(enumerate_regular(complete_graph(6), 3))
    cases.append(({1, 2}, "two-in", members6))
    rng = random.Random(41)
    members8 = list(enumerate_regular(complete_graph(8), 3))
    for mode, size in (("two-in", 4), ("one-in", 3)):
        cases.append((set(rng.sample(range(1, 9), size)), mode,
                      rng.sample(members8, 150)))
    checked = 0
    for w, mode, pool in cases:
        stats = {}
        for k in pool:
            stats.setdefault(six_cycle_statistic(k, w, mode), []).append(k)
        value, family = max(((v, f) for v, f in stats.items() if v > 0),
                            key=lambda vf: len(vf[1]))
        if pool is not members6:
            family = family[:rng.randint(5, 8)]
        for fam in (family, family[:1], family[:2] + family[:1])[:3 if checked < 2 else 1]:
            want = reference(fam, w, mode, value)
            _assert_same_switching_graph(build_six_cycle_graph(3, w, mode, fam), want)
            checked += bool(want.edges)
    assert checked >= 4


def test_assembler_counts_walked_cycles():
    """A member that walks one cycle twice, or a reverse pass that drops an
    edge, fails the double count."""
    w = {1, 2}
    family = [k for k in enumerate_regular(complete_graph(6), 3)
              if six_cycle_statistic(k, w, "two-in") == 1]
    good = switching._bipartite_from_switches(
        "six", family, _six_walk(w, "two-in"), {})
    assert verify_double_count(good)["passed"] and good.edges

    def doubled(n, masks, graphs, reverse=False):
        leaves = list(_six_walk(w, "two-in")(n, masks, graphs, reverse))
        return leaves + ([] if reverse else leaves[:1])

    def dropped(n, masks, graphs, reverse=False):
        leaves = list(_six_walk(w, "two-in")(n, masks, graphs, reverse))
        if reverse:
            flips, members = leaves[0]
            leaves[0] = (flips, list(members)[1:])
        return leaves

    for walk in (doubled, dropped):
        graph = switching._bipartite_from_switches("six", family, walk, {})
        assert not verify_double_count(graph)["passed"]


def _six_walk(w, mode):
    wmask = sum(1 << v for v in w)

    def walk(n, masks, graphs, reverse=False):
        sets = switching._family_sets(n, masks)
        for flips, members in switching._six_cycles(n, wmask, mode, sets, reverse):
            yield flips, switching._member_indices(members)
    return walk


def test_graph_sets_equal_a_family_of_one():
    rng = random.Random(42)
    for n in (6, 8, 11):
        k = random_regular_graph(n, 3 if n % 2 == 0 else 4, rng)
        assert switching._graph_sets(k) == switching._family_sets(n, [k.edge_mask()])
