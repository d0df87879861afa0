"""Independent oracles used only by the tests.

These deliberately avoid the library's algorithms: regular counts and
subgraphs with a given degree vector come from filtering raw edge-subset
combinations, and path counts from a layered meet-in-the-middle join
instead of depth-first search.
"""

from itertools import combinations

from sandwichlab.graphs import difference


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
