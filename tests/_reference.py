"""Independent oracles used only by the tests.

These deliberately avoid the library's algorithms: regular counts and
subgraphs with a given degree vector come from filtering raw edge-subset
combinations, path counts from a layered meet-in-the-middle join instead of
depth-first search, path polynomial profiles from every sequence of
distinct interior vertices instead of a walk over bit rows, expansion
reports from every (U', U) pair one by one, its statistic from the edge sets
of `graphs`, instead of blocks folded to their greatest popcount, six-cycle
switchings from every ordered vertex 6-tuple instead of a pruned walk,
single-edge and two-path switchings from every vertex sequence with the
cycle's shape instead of a depth-first walk over bit rows, auxiliary switching graphs by
building and keying every switched graph instead of toggling keys, and the
labeled members of an isomorphism class from every vertex permutation
instead of double counting.
"""

import math
from functools import lru_cache
from itertools import combinations, permutations

from sandwichlab.graphs import (
    SimpleGraph,
    canonical_key,
    canonical_pair,
    difference,
    edges_inside,
    multi_covered_edges,
    neighborhood,
)
from sandwichlab.switching import SwitchingGraph


def brute_force_regular_count(n, d, host=None):
    """Count d-regular graphs on {1..n} (inside host) by filtering subsets."""
    pairs = host.edges() if host is not None else list(
        combinations(range(1, n + 1), 2))
    if (n * d) % 2:
        return 0
    size = n * d // 2
    count = 0
    for chosen in combinations(pairs, size):
        deg = [0] * (n + 1)
        for u, v in chosen:
            deg[u] += 1
            deg[v] += 1
        if all(deg[v] == d for v in range(1, n + 1)):
            count += 1
    return count


def brute_force_subgraphs(n, pairs, target):
    """Every subset of pairs whose degree vector is target (1-based), by filtering."""
    size, odd = divmod(sum(target[1:]), 2)
    if odd or size < 0:
        return []
    found = []
    for chosen in combinations(pairs, size):
        deg = [0] * (n + 1)
        for u, v in chosen:
            deg[u] += 1
            deg[v] += 1
        if deg[1:] == list(target[1:]):
            found.append(chosen)
    return found


def expand_class_law(law):
    """{canonical_key: probability} of the labeled graphs a coupling.ClassLaw
    stands for, found by applying every permutation of the vertices to each
    class's graph; checks that each class has its stated size and that no
    two classes share a member."""
    n = law.n
    out = {}
    for cert, g in law.graphs.items():
        members = set()
        for perm in permutations(range(1, n + 1)):
            image = [(perm[u - 1], perm[v - 1]) for u, v in g.edges()]
            members.add(canonical_key(SimpleGraph(n, image)))
        assert len(members) == law.sizes[cert], cert
        for key in members:
            assert key not in out, key
            out[key] = law.probs[cert]
    return out


def _half_paths(rows_seq, start, avoid):
    """All simple walks following one adjacency table per step."""
    out = []

    def rec(v, used, i):
        if i == len(rows_seq):
            out.append((v, used))
            return
        row = rows_seq[i][v]
        w = 0
        while row:
            if row & 1 and w not in used and w not in avoid:
                rec(w, used | {w}, i + 1)
            row >>= 1
            w += 1

    rec(start, frozenset([start]), 0)
    return out


def mitm_alternating_count(f, k, x, y, length, avoid=(), start_in_k=False):
    """Meet-in-the-middle count of simple alternating x,y-paths.

    Forward halves grow from x, backward halves from y; a pair joins when the
    halves meet at one shared vertex and are otherwise disjoint.
    """
    fk = difference(f, k)
    first, second = (k.adj, fk.adj) if start_in_k else (fk.adj, k.adj)

    def rows_for(step):
        return first if step % 2 == 1 else second

    a = length // 2
    avoid = set(avoid)
    forward = _half_paths([rows_for(j) for j in range(1, a + 1)], x, avoid)
    backward = _half_paths([rows_for(j) for j in range(length, a, -1)], y, avoid)
    by_mid = {}
    for end, used in backward:
        by_mid.setdefault(end, []).append(used)
    total = 0
    for mid, used_f in forward:
        for used_b in by_mid.get(mid, []):
            if used_f & used_b == {mid}:
                total += 1
    return total


def brute_force_alternating_paths(n, odd, even, x, y, length, avoid=()):
    """Every simple x,y-path of `length` edges whose odd-numbered edges lie in
    odd and even-numbered edges in even (sets of canonical pairs), as vertex
    tuples: every sequence of distinct interior vertices outside avoid is
    tried."""
    rest = [v for v in range(1, n + 1) if v not in (x, y) and v not in avoid]
    out = []
    for middle in permutations(rest, length - 1):
        path = (x, *middle, y)
        if all(canonical_pair(a, b) in (odd if j % 2 else even)
               for j, (a, b) in enumerate(zip(path, path[1:]), 1)):
            out.append(path)
    return out


def brute_force_path_polynomial(k, p, x, y, order, avoid=()):
    """(skeleton count, E Y, by_order) of path_polynomial_stats from the
    brute-force paths: by_order[i] is p^(order-i) times the most paths whose
    odd (non-K) edges contain one i-subset of pairs."""
    edges = {canonical_pair(u, v) for u, v in k.edges()}
    non_edges = set(combinations(range(1, k.n + 1), 2)) - edges
    paths = brute_force_alternating_paths(k.n, non_edges, edges, x, y,
                                          2 * order, avoid)
    skeletons = [{canonical_pair(path[j], path[j + 1])
                  for j in range(0, 2 * order, 2)} for path in paths]
    by_order = {0: len(paths) * p ** order}
    for i in range(1, order + 1):
        candidates = {frozenset(a) for s in skeletons
                      for a in combinations(sorted(s), i)}
        most = max((sum(1 for s in skeletons if a <= s) for a in candidates),
                   default=0)
        by_order[i] = most * p ** (order - i)
    return len(paths), by_order[0], by_order


def expansion_pairs(carrier, witness_cap, min_ratio, size_cap, pool_cap,
                    samples, rng):
    """Every (U', U) pair an expansion check visits, one by one, in its order.

    U' runs over the sets of up to witness_cap vertices, by size, and U over
    the subsets of the pool U' + carrier-neighborhood of U' with
    |U| >= min_ratio*|U'| and |U| <= size_cap: every subset, by size, when the
    pool has at most pool_cap vertices, else `samples` random ones drawn from
    rng (a size by randint, then the set by sample).
    """
    for size in range(1, witness_cap + 1):
        for uprime in combinations(range(1, carrier.n + 1), size):
            pool = sorted(set(uprime) | neighborhood(carrier, uprime))
            min_size = max(1, math.ceil(min_ratio * size))
            if min_size > size_cap:
                continue
            if len(pool) <= pool_cap:
                for usize in range(min_size, int(min(len(pool), size_cap)) + 1):
                    for u in combinations(pool, usize):
                        yield uprime, u
            elif rng is not None:
                for _ in range(samples):
                    usize = rng.randint(min_size, int(min(len(pool), size_cap)))
                    yield uprime, tuple(rng.sample(pool, usize))


def expansion_instances(f, k, counts_k, lam, delta, d, size_cap,
                        log_divisor=False, witness_cap=3, pool_cap=14,
                        samples=50, rng=None):
    """(property, params, stream of (margin, (U', U))) for check_expansion_k
    (counts_k) or check_expansion_fk, the statistic recomputed for every pair
    as len(multi_covered_edges) + edges_inside."""
    fk = difference(f, k)
    logn = math.log(f.n)
    if counts_k:
        carrier, counted, ratio = fk, k, delta
        factor = (lam / logn) * d if log_divisor else lam * d
        prop = "expansion-k"
        params = {"lam": lam, "d": d, "delta": delta,
                  "log_divisor": log_divisor, "size_cap": size_cap}
    else:
        carrier, counted, ratio = k, fk, d
        factor = (lam / logn) * delta
        prop = "expansion-fk"
        params = {"lam": lam, "delta": delta, "d": d, "size_cap": size_cap}
    pairs = expansion_pairs(carrier, witness_cap, ratio / 4, size_cap,
                            pool_cap, samples, rng)
    stream = ((factor * len(u) - (len(multi_covered_edges(counted, u))
                                  + edges_inside(counted, u)), (uprime, u))
              for uprime, u in pairs)
    return prop, params, stream


def expansion_report(*args, **kwargs):
    """check_expansion_k (counts_k) or check_expansion_fk as an as_dict()
    dict, folding expansion_instances pair by pair; size_cap must admit a set.
    """
    prop, params, stream = expansion_instances(*args, **kwargs)
    worst, witness, seen = float("inf"), None, 0
    for margin, pair in stream:
        seen += 1
        if margin < worst:
            worst, witness = margin, pair
    assert seen, "no witnessed set: pick a larger size_cap"
    return {"property": prop, "params": params, "instances": seen,
            "passed": worst >= 0, "worst_margin": worst,
            "witness": sorted(sorted(part) for part in witness), "notes": ""}


@lru_cache(maxsize=16)
def _alternating_six_tuples(k, reverse):
    """Every ordered 6-tuple v1..v6 of distinct vertices with v1v2, v3v4, v5v6
    in `first` (K, or the non-edges when reverse) and v2v3, v4v5, v6v1 in
    `second`, with its six pairs."""
    edge = {canonical_pair(u, v) for u, v in k.edges()}
    out = []
    for cyc in permutations(range(1, k.n + 1), 6):
        pairs = [canonical_pair(cyc[i], cyc[(i + 1) % 6]) for i in range(6)]
        if all(((p in edge) != reverse) == (i % 2 == 0)
               for i, p in enumerate(pairs)):
            out.append((cyc, pairs))
    return out


def _switched_rows(k, pairs):
    """Adjacency rows of K with every pair in `pairs` flipped."""
    rows = list(k.adj)
    for u, v in pairs:
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
    return tuple(rows)


def six_cycle_switch_graphs(k, wprime, mode, reverse=False):
    """Edge rows of every graph six_cycle_switches should return, one per cycle.

    Every ordered 6-tuple is tried as v1..v6 with v1v2, v3v4, v5v6 in `first`
    (K, or the non-edges when reverse) and v2v3, v4v5, v6v1 in `second`; a
    cycle qualifies by how it meets W' (w = v1, x = v2, z = v6):
    two-in: exactly v1 and v2 in W';
    one-in: exactly v1 in W', and in K, x has >= 2 (forward) or >= 1 (reverse)
    neighbors in W' and z has 0 (forward) or <= 1 (reverse).
    Cycles are kept once each by their edge set.
    """
    edge = {canonical_pair(u, v) for u, v in k.edges()}

    def deg_in(v):
        return sum(1 for w in wprime if canonical_pair(v, w) in edge)

    cycles = {}
    for cyc, pairs in _alternating_six_tuples(k, reverse):
        inside = [v in wprime for v in cyc]
        if mode == "two-in":
            ok = inside == [True, True, False, False, False, False]
        elif reverse:
            ok = (inside == [True] + [False] * 5 and deg_in(cyc[1]) >= 1
                  and deg_in(cyc[5]) <= 1)
        else:
            ok = (inside == [True] + [False] * 5 and deg_in(cyc[1]) >= 2
                  and deg_in(cyc[5]) == 0)
        if ok:
            cycles.setdefault(frozenset(pairs), pairs)
    return [_switched_rows(k, pairs) for pairs in cycles.values()]


def two_path_switch_graphs(k, odd, even, e, f_edge, length):
    """Edge rows of every graph a two-path switching of K gives, one per cycle.

    odd and even are edge sets of canonical pairs.  Every sequence of distinct
    vertices u1, a_1, ..., a_{length-1}, w1 and u2, b_1, ..., b_{length-1},
    w2, with e = u1u2 and {w1, w2} = f's endpoints in either order, is tried
    as the two paths, each pair checked against odd (edges 1, 3, ...) or even
    (edges 2, 4, ...); a pair of paths that passes flips both paths, e and f.
    """
    u1, u2 = e
    inner = length - 1
    rest = [v for v in range(1, k.n + 1) if v not in (*e, *f_edge)]

    def alternates(path):
        return all(canonical_pair(a, b) in (odd if j % 2 else even)
                   for j, (a, b) in enumerate(zip(path, path[1:]), 1))

    out = []
    for w1, w2 in (f_edge, f_edge[::-1]):
        for middle in permutations(rest, 2 * inner):
            p1 = (u1, *middle[:inner], w1)
            p2 = (u2, *middle[inner:], w2)
            if alternates(p1) and alternates(p2):
                pairs = [canonical_pair(a, b) for path in (p1, p2)
                         for a, b in zip(path, path[1:])]
                out.append(_switched_rows(k, pairs + [canonical_pair(*e),
                                                      canonical_pair(*f_edge)]))
    return out


def le_switch_graphs(k, host, e, ell, reverse=False):
    """Edge rows of every graph a single-edge (le) switching of K gives, one
    per cycle: each path of length 2*ell+1 between e's endpoints alternating
    (F\\K, K), or (K, F\\K) when reverse (brute_force_alternating_paths),
    closed with e and every pair flipped."""
    edges = {canonical_pair(u, v) for u, v in k.edges()}
    fk = {canonical_pair(u, v) for u, v in host.edges()} - edges
    odd, even = (edges, fk) if reverse else (fk, edges)
    out = []
    for path in brute_force_alternating_paths(k.n, odd, even, *e, 2 * ell + 1):
        pairs = [canonical_pair(a, b) for a, b in zip(path, path[1:])]
        out.append(_switched_rows(k, pairs + [canonical_pair(*e)]))
    return out


def switching_graph_reference(kind, left_graphs, forward, reverse, meta):
    """The SwitchingGraph a builder should return, from switched graphs.

    forward(K) and reverse(K') list the switched graphs out of a left and a
    right member (the public switch functions); every one is keyed by
    canonical_key, and a reverse output counts only inside the left class.
    """
    left = {canonical_key(g): g for g in left_graphs}
    forward_edges, left_degrees, right_members = set(), {}, {}
    for key, g in left.items():
        outs = forward(g)
        left_degrees[key] = len(outs)
        for h in outs:
            right_members[canonical_key(h)] = h
            forward_edges.add((key, canonical_key(h)))
    reverse_edges, right_degrees = set(), {}
    for hk in sorted(right_members):
        inside = [bk for bk in map(canonical_key, reverse(right_members[hk]))
                  if bk in left]
        right_degrees[hk] = len(inside)
        reverse_edges.update((bk, hk) for bk in inside)
    return SwitchingGraph(kind, sorted(left), sorted(right_members),
                          sorted(forward_edges), left_degrees, right_degrees,
                          forward_edges == reverse_edges, meta)
