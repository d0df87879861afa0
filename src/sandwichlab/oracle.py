"""Exact counting and enumeration of d-regular graphs inside or around a host.

Everything here is exact integer arithmetic.  One engine serves every
operation: a vertex-by-vertex backtracking search that, processing vertices
in increasing order, assigns each vertex's remaining incident edges as a
subset of its still-available higher-indexed host neighbors, cutting
branches whose residual degree exceeds the remaining candidates.  It
memoizes on the residual-degree suffix, which turns the search tree into a
DAG of states, and keeps every state's count and its choices with a
non-zero count.  Counts read the DAG's total.  Per-edge profiles never list
the subgraphs: a forward pass, level by level from the longest suffix down,
counts the paths into each state, and the subgraphs that choose an edge at a
state number the state's paths times the completions below that choice.
Enumeration walks the DAG from its root, so it never enters a branch that
completes no subgraph.

Edge profiles are cached in an OracleCache, keyed by the isomorphism
certificate (graphs.canonical_labeling) of the searched graph, the host or
the partial graph's complement: their counts are invariant under
relabeling, and the coupled processes meet the same host up to relabeling
at every stage of every trial (K_n - e, a single edge, ...).  A profile is
searched on the certificate's rows, in canonical labels, and the entry holds
its per-edge counts in those labels.  The cache also holds a bounded table
of search states that every spanning-profile search reads and fills: a
state's count and choices depend only on the subgraph induced on its suffix
and its residual degrees, and canonical labels, which put low degrees first
(McKay & Piperno, "Practical graph isomorphism II", 2014), make consecutive
hosts of the deletion process share most of their suffixes.  Extension
profiles, counts and enumeration search with a memo of their own per call.
The callers of counts ask for each host once, closed_form_class_laws for one
canonical form per isomorphism class and stage, closed_form_law for each
labeled edge subset.
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
MAX_STATES = 100_000  # an OracleCache's state table is dropped past this many states


class CapacityError(RuntimeError):
    """Instance exceeds the configured exact-oracle ceiling."""


class OracleCache:
    """Bounded LRU cache of edge profiles, and a bounded table of search states.

    Profile keys are (n, certificate, d, family): the isomorphism class of
    the searched graph (the host for "_spanning", its complement for
    "_completions") and the family's name.  Each entry holds the total and
    the per-edge counts in canonical labels.  len, hits and misses count
    these entries and their lookups only; maxsize bounds the entries.

    The state table serves every spanning-profile search made through this
    cache, on any host: it maps each induced suffix subgraph of vertices
    v..n, as the rows adj[x] >> x of its vertices (each vertex's edges to
    later ones), to the dict from residual suffixes to state entries that
    _search reads and fills.  states is the number of states it holds.  A
    search that leaves more than MAX_STATES drops the whole table, so
    between searches it never holds more (about 380 bytes a state at n=10,
    d=3).  The entries share their combo tuples, one per distinct
    (candidates, need).  clear() empties the profiles, their counters and
    the table.  Extension profiles search with a memo of their own for now:
    sharing the table shortens lower-direction benchmark passes below the
    roughly 27 ms of CPU that perfbench's sampler needs to time a pass, so
    it waits on that sampler fix.
    """

    def __init__(self, maxsize: int = 200_000):
        self.maxsize = maxsize
        self._data = OrderedDict()
        self._suffixes = {}
        self._combos = {}
        self.states = 0
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

    def search(self, adj, n: int, target):
        """_private_search, but reading and filling the state table."""
        rows = tuple([adj[x] >> x for x in range(1, n + 1)])
        keys = [rows[v - 1:] for v in range(1, n + 1)]
        tables = [None] + [self._suffixes.setdefault(key, {}) for key in keys]
        before = sum(map(len, tables[1:]))
        total, root = _search(adj, n, target, tables, self._options)
        self.states += sum(map(len, tables[1:])) - before
        for key, table in zip(keys, tables[1:]):
            if not table:  # a suffix that no state of this search reached
                del self._suffixes[key]
        if self.states > MAX_STATES:
            self._suffixes.clear()
            self._combos.clear()
            self.states = 0
        return total, root, tables

    def _options(self, cands: list, need: int) -> tuple:
        """combinations(cands, need), one tuple per distinct argument pair."""
        key = (tuple(cands), need)
        options = self._combos.get(key)
        if options is None:
            options = self._combos[key] = tuple(combinations(cands, need))
        return options

    def clear(self):
        self._data.clear()
        self._suffixes.clear()
        self._combos.clear()
        self.states = 0
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._data)


DEFAULT_CACHE = OracleCache()


def _check_capacity(n: int):
    if n > ORACLE_CEILING:
        raise CapacityError(f"n={n} exceeds exact-oracle ceiling {ORACLE_CEILING}")


def _search(adj, n: int, target, tables, options):
    """(total, root) of the memoized search for the degree vector.

    adj is 1-based bitmask rows, target is 1-based residual degrees.  A state
    is the residual-degree suffix res of vertices v..n, with res[0] > 0 and
    v = n + 1 - len(res); a choice gives v its res[0] edges to later
    neighbors (a combo holds the offsets j of the edges (v, v + j)).
    tables[v] maps each state of vertex v to its entry (count, res, choices),
    read and filled here.  choices is flat: for each choice with a non-zero
    count, its combo and then its child state, None where the choice
    completes the subgraph; each child is the res of the child's own entry,
    so that entries share their key objects.  options(candidates, need)
    iterates over the combos, as combinations does.
    root is None when the total is 0, or when the target is all zeros
    (total 1, the empty subgraph).
    """
    if any(t < 0 for t in target[1:]) or sum(target[1:]) % 2:
        return 0, None

    def rec(v: int, res: tuple) -> tuple:
        # callers strip the leading zeros and look up tables[v] first
        need = res[0]
        size = len(res)
        row = adj[v] >> v
        cands = [j for j in range(1, size) if res[j] and (row >> j) & 1]
        total = 0
        choices = []
        if len(cands) >= need:
            tail = list(res[1:])
            last = size - 1
            for combo in options(cands, need):
                new = tail[:]
                for j in combo:
                    new[j - 1] -= 1
                k = 0
                while k < last and not new[k]:
                    k += 1
                if k == last:
                    child, c = None, 1
                else:
                    w = v + 1 + k
                    suffix = tuple(new[k:])
                    entry = tables[w].get(suffix)
                    if entry is None:
                        entry = rec(w, suffix)
                    c, child, _ = entry
                    if not c:
                        continue
                total += c
                choices += (combo, child)
        entry = tables[v][res] = (total, res, tuple(choices))
        return entry

    res = tuple(target[1:])
    k = 0
    while k < n and not res[k]:
        k += 1
    if k == n:
        return 1, None
    root = res[k:]
    entry = tables[k + 1].get(root)
    if entry is None:
        entry = rec(k + 1, root)
    del rec  # rec's closure refers to itself; break the cycle so it is freed now
    total = entry[0]
    return total, (root if total else None)


def _private_search(adj, n: int, target):
    """(total, root, tables) of a search with a memo of its own, and its
    combos straight from combinations.

    One dict serves every vertex, since within one host len(res) fixes v.
    """
    tables = [{}] * (n + 1)
    return (*_search(adj, n, target, tables, combinations), tables)


def _choices(entry):
    """The (combo, child) pairs of a state entry."""
    it = iter(entry[2])
    return zip(it, it)


def _profile(root, n: int, tables) -> dict:
    """Per-edge counts over the subgraphs of the search DAG below root.

    Forward pass, level by level from the longest suffix down (every choice
    leads to a shorter one; entries found in earlier searches have no place
    in this search's order): each state pushes its path count to its
    children and adds paths x count to each edge of each choice.  Edges
    carried by no subgraph are absent.
    """
    tally = {}
    if root is None:
        return tally
    levels = [{} for _ in range(len(root) + 1)]
    levels[len(root)][root] = 1
    for size in range(len(root), 0, -1):
        v = n + 1 - size
        table = tables[v]
        for state, p in levels[size].items():
            for combo, child in _choices(table[state]):
                if child is None:
                    pc = p
                else:
                    level = levels[len(child)]
                    level[child] = level.get(child, 0) + p
                    pc = p * tables[n + 1 - len(child)][child][0]
                for j in combo:
                    e = (v, v + j)
                    tally[e] = tally.get(e, 0) + pc
    return tally


def _subgraphs(root, n: int, tables):
    """Yield the edge list of every subgraph of the search DAG below root,
    which is None for the empty subgraph alone.

    Walks from the root, so every branch entered ends in a subgraph.
    """
    def walk(state, edges):
        if state is None:
            yield edges
            return
        v = n + 1 - len(state)
        for combo, child in _choices(tables[v][state]):
            yield from walk(child, edges + [(v, v + j) for j in combo])

    yield from walk(root, [])


# -- the two families a search runs over ----------------------------------------

def _spanning(host: SimpleGraph, d: int):
    """(searched graph, target) for the d-regular spanning subgraphs of host."""
    _check_capacity(host.n)
    return host, [0] + [d] * host.n


def _completions(f: SimpleGraph, d: int):
    """(searched graph, target) for the edge sets completing f to a d-regular
    graph: subgraphs of the complement meeting the residual degrees."""
    _check_capacity(f.n)
    return complement(f), [0] + [d - f.degree(v) for v in f.vertices()]


def _count(g: SimpleGraph, target) -> int:
    return _private_search(g.adj, g.n, target)[0]


# -- counting operations -------------------------------------------------------

def count_regular_spanning_subgraphs(host: SimpleGraph, d: int) -> int:
    """Exact number of d-regular spanning subgraphs of the host.

    Returns 0 (rather than erroring) when dn is odd or no subgraph exists.
    """
    if not 0 <= d <= host.n - 1 and d != 0:
        return 0
    return _count(*_spanning(host, d))


def count_with_edge(host: SimpleGraph, d: int, e) -> int:
    """Exact number of d-regular spanning subgraphs of the host containing e."""
    u, v = checked_pair(host, e)
    if not host.has_edge(u, v):
        raise ValueError(f"edge {u}-{v} not in host")
    g, target = _spanning(host.without_edge(u, v), d)
    target[u] -= 1
    target[v] -= 1
    return _count(g, target)


def count_extensions(f: SimpleGraph, d: int) -> int:
    """Exact number of d-regular graphs on {1..n} containing f.

    Searched directly over completions (subgraphs of the complement meeting the
    residual degree vector); does not delegate to the complement-count dual.
    """
    return _count(*_completions(f, d))


def count_extensions_with_edge(f: SimpleGraph, d: int, e) -> int:
    """Exact |{K d-regular : f + e inside K}| for a non-edge e of f."""
    u, v = checked_pair(f, e)
    if f.has_edge(u, v):
        raise ValueError(f"edge {u}-{v} already in the partial graph")
    return count_extensions(f.with_edge(u, v), d)


# -- enumeration ---------------------------------------------------------------

def _enumerate(base: list, g: SimpleGraph, target):
    """Every graph base + S over the subgraphs S of g the search finds, in
    canonical_key order."""
    total, root, tables = _private_search(g.adj, g.n, target)
    found = [SimpleGraph(g.n, base + edges)
             for edges in _subgraphs(root, g.n, tables)] if total else []
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
    cache entry of the searched graph's isomorphism class.

    A miss searches the certificate's rows, with the target moved to
    canonical labels, and stores the per-edge counts in those labels.  Every
    call, miss or hit, maps them back through the inverse relabeling into a
    fresh dict sorted by edge.
    """
    _check_capacity(g.n)  # before labeling g, which is slow on a graph this large
    cache = DEFAULT_CACHE if cache is None else cache
    n = g.n
    searched, target = family(g, d)
    cert, relabel = canonical_labeling(searched)
    key = (n, cert, d, family.__name__)
    entry = cache.get(key)
    if entry is None:
        canonical_target = [0] * (n + 1)
        for v in range(1, n + 1):
            canonical_target[relabel[v]] = target[v]
        # only spanning profiles share the state table (see OracleCache)
        search = cache.search if family is _spanning else _private_search
        total, root, tables = search(cert, n, canonical_target)
        entry = (total, _profile(root, n, tables))
        cache.put(key, entry)
    total, canonical_tally = entry
    inverse = [0] * (n + 1)
    for v in range(1, n + 1):
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
