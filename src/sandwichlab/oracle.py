"""Exact counting and enumeration of d-regular graphs inside or around a host.

Everything here is exact integer arithmetic.  One engine serves every
operation: a vertex-by-vertex backtracking search that, processing vertices
in increasing order, assigns each vertex's remaining incident edges as a
subset of its still-available higher-indexed host neighbors, cutting
branches whose residual degree exceeds the remaining candidates.  It
memoizes on the residual-degree suffix, which turns the search tree into a
DAG of states, and keeps every state and choice with a non-zero count.
Counts read the DAG's total.  Per-edge profiles never list the subgraphs: a
forward pass in topological order counts the paths into each state, and the
subgraphs that choose an edge at a state number the state's paths times the
completions below that choice.  Enumeration walks the DAG from its root, so
it never enters a branch that completes no subgraph.

Edge profiles are cached in an OracleCache, keyed by the host's
isomorphism certificate (graphs.canonical_labeling): their counts are
invariant under relabeling, and the coupled processes meet the same host up
to relabeling at every stage of every trial (K_n - e, a single edge, ...).
The entry holds the per-edge counts in canonical labels.  Counts are not
cached: their callers ask for each host once, closed_form_class_laws for
one canonical form per isomorphism class and stage, closed_form_law for
each labeled edge subset.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import combinations

from .graphs import (
    SimpleGraph,
    canonical_key,
    canonical_labeling,
    checked_pair,
    complement,
)

ORACLE_CEILING = 24


class CapacityError(RuntimeError):
    """Instance exceeds the configured exact-oracle ceiling."""


class OracleCache:
    """Bounded LRU cache of edge profiles.

    Keys are (n, certificate, d, family), the host's isomorphism class and
    the name of the family searched ("_spanning" or "_completions"); each
    entry holds the total and the per-edge counts in canonical labels.
    """

    def __init__(self, maxsize: int = 200_000):
        self.maxsize = maxsize
        self._data = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value):
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def clear(self):
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._data)


DEFAULT_CACHE = OracleCache()


def _check_capacity(n: int):
    if n > ORACLE_CEILING:
        raise CapacityError(f"n={n} exceeds exact-oracle ceiling {ORACLE_CEILING}")


def _search(adj, n: int, target):
    """(total, root, node, order) of the memoized search for the degree vector.

    adj is 1-based bitmask rows, target is 1-based residual degrees.  A state
    is the residual-degree suffix res of vertices v..n, with res[0] > 0 and
    v = n + 1 - len(res); a choice gives v its res[0] edges to later
    neighbors (combo holds the offsets j of the edges (v, v + j)).  node maps
    each state with a non-zero count to its non-zero choices as
    (combo, child, count), where child is None when the choice completes the
    subgraph.  order lists those states in post-order (children first).  root
    is None when no state is needed: the target is all zeros (total 1, the
    empty subgraph) or infeasible (total 0).
    """
    if any(t < 0 for t in target[1:]) or sum(target[1:]) % 2:
        return 0, None, {}, []
    memo = {}
    node = {}
    order = []

    def rec(res: tuple) -> int:
        # callers strip the leading zeros and look up memo first
        v = n + 1 - len(res)
        need = res[0]
        row = adj[v] >> v
        cands = [j for j in range(1, len(res)) if res[j] and (row >> j) & 1]
        total = 0
        choices = []
        if len(cands) >= need:
            tail = list(res[1:])
            size = len(tail)
            for combo in combinations(cands, need):
                new = tail[:]
                for j in combo:
                    new[j - 1] -= 1
                k = 0
                while k < size and not new[k]:
                    k += 1
                if k == size:
                    child, c = None, 1
                else:
                    child = tuple(new[k:])
                    c = memo.get(child)
                    if c is None:
                        c = rec(child)
                    if not c:
                        continue
                total += c
                choices.append((combo, child, c))
        memo[res] = total
        if total:
            node[res] = choices
            order.append(res)
        return total

    res = tuple(target[1:])
    k = 0
    while k < n and not res[k]:
        k += 1
    if k == n:
        return 1, None, {}, []
    root = res[k:]
    total = rec(root)
    del rec  # rec's closure refers to itself; break the cycle so memo is freed now
    return total, root, node, order


def _profile(adj, n: int, target):
    """(total, per-edge counts) over the spanning subgraphs matching the degrees.

    Forward pass over the search DAG: in reverse post-order (parents before
    children) each state pushes its path count to its children and adds
    paths x count to each edge of each choice.  Edges carried by no subgraph
    are absent.
    """
    total, root, node, order = _search(adj, n, target)
    tally = {}
    paths = {root: 1}
    for state in reversed(order):
        p = paths.pop(state)
        v = n + 1 - len(state)
        for combo, child, c in node[state]:
            if child is not None:
                paths[child] = paths.get(child, 0) + p
            pc = p * c
            for j in combo:
                e = (v, v + j)
                tally[e] = tally.get(e, 0) + pc
    return total, tally


def _subgraphs(adj, n: int, target):
    """Yield the edge list of every spanning subgraph matching the degrees.

    Walks the search DAG from the root, so every branch entered ends in a
    subgraph.
    """
    total, root, node, _ = _search(adj, n, target)

    def walk(state, edges):
        if state is None:
            yield edges
            return
        v = n + 1 - len(state)
        for combo, child, _ in node[state]:
            yield from walk(child, edges + [(v, v + j) for j in combo])

    if total:
        yield from walk(root, [])


# -- the two families a search runs over ----------------------------------------

def _spanning(host: SimpleGraph, d: int):
    """(adj, n, target) of the search for the d-regular spanning subgraphs of host."""
    _check_capacity(host.n)
    return host.adj, host.n, [0] + [d] * host.n


def _completions(f: SimpleGraph, d: int):
    """(adj, n, target) of the search for the edge sets completing f to a
    d-regular graph: subgraphs of the complement meeting the residual degrees."""
    _check_capacity(f.n)
    return complement(f).adj, f.n, [0] + [d - f.degree(v) for v in f.vertices()]


# -- counting operations -------------------------------------------------------

def count_regular_spanning_subgraphs(host: SimpleGraph, d: int) -> int:
    """Exact number of d-regular spanning subgraphs of the host.

    Returns 0 (rather than erroring) when dn is odd or no subgraph exists.
    """
    if not 0 <= d <= host.n - 1 and d != 0:
        return 0
    return _search(*_spanning(host, d))[0]


def count_with_edge(host: SimpleGraph, d: int, e) -> int:
    """Exact number of d-regular spanning subgraphs of the host containing e."""
    u, v = checked_pair(host, e)
    if not host.has_edge(u, v):
        raise ValueError(f"edge {u}-{v} not in host")
    adj, n, target = _spanning(host.without_edge(u, v), d)
    target[u] -= 1
    target[v] -= 1
    return _search(adj, n, target)[0]


def count_extensions(f: SimpleGraph, d: int) -> int:
    """Exact number of d-regular graphs on {1..n} containing f.

    Searched directly over completions (subgraphs of the complement meeting the
    residual degree vector); does not delegate to the complement-count dual.
    """
    return _search(*_completions(f, d))[0]


def count_extensions_with_edge(f: SimpleGraph, d: int, e) -> int:
    """Exact |{K d-regular : f + e inside K}| for a non-edge e of f."""
    u, v = checked_pair(f, e)
    if f.has_edge(u, v):
        raise ValueError(f"edge {u}-{v} already in the partial graph")
    return count_extensions(f.with_edge(u, v), d)


# -- enumeration ---------------------------------------------------------------

def _enumerate(base: list, adj, n: int, target):
    """Every graph base + S over the subgraphs S the search finds, in
    canonical_key order."""
    found = [SimpleGraph(n, base + edges) for edges in _subgraphs(adj, n, target)]
    found.sort(key=canonical_key)
    yield from found


def enumerate_regular(host: SimpleGraph, d: int):
    """Yield every d-regular spanning subgraph of the host, in canonical_key order."""
    yield from _enumerate([], *_spanning(host, d))


def enumerate_extensions(f: SimpleGraph, d: int):
    """Yield every d-regular graph on {1..n} containing f, in canonical_key order."""
    yield from _enumerate(f.edges(), *_completions(f, d))


# -- edge profiles (used by the coupling processes) ---------------------------

def _profile_entry(g: SimpleGraph, d: int, family, cache):
    """Profile over the family (_spanning or _completions) of g, from the
    cache entry of g's isomorphism class.

    The entry holds the per-edge counts in canonical labels.  A miss computes
    the profile on g itself and stores it relabeled; a hit maps the stored
    counts back through the inverse relabeling.  Either way the per-edge
    dict is a fresh one, sorted by edge.
    """
    _check_capacity(g.n)  # before labeling g, which is slow on a graph this large
    cache = DEFAULT_CACHE if cache is None else cache
    cert, relabel = canonical_labeling(g)
    key = (g.n, cert, d, family.__name__)
    hit = cache.get(key)
    if hit is None:
        total, tally = _profile(*family(g, d))
        cache.put(key, (total, {_relabel(relabel, e): c for e, c in tally.items()}))
        return total, dict(sorted(tally.items()))
    total, canonical_tally = hit
    inverse = [0] * (g.n + 1)
    for v in g.vertices():
        inverse[relabel[v]] = v
    return total, dict(sorted((_relabel(inverse, e), c)
                              for e, c in canonical_tally.items()))


def _relabel(labels, e) -> tuple:
    a, b = labels[e[0]], labels[e[1]]
    return (a, b) if a < b else (b, a)


def spanning_profile(host: SimpleGraph, d: int, cache: OracleCache = None):
    """(total, per-edge counts) for the d-regular spanning subgraphs of host.

    per-edge counts maps each host edge e to |{K : e in E(K)}|, in edge
    order; edges carried by no subgraph are absent.  One backward and one
    forward pass over the counting DAG serve every edge, which is what the
    deletion process needs at each stage.
    """
    return _profile_entry(host, d, _spanning, cache)


def extension_profile(f: SimpleGraph, d: int, cache: OracleCache = None):
    """(total, per-missing-edge counts) for the d-regular graphs containing f.

    per-missing-edge counts maps each non-edge e of f to |{K : f + e in K}|,
    in edge order; non-edges carried by no such graph are absent.
    """
    return _profile_entry(f, d, _completions, cache)
