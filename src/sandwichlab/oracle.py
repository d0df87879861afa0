"""Exact counting and enumeration of the d-regular graphs K between a base and a host.

Every set here is one family, base inside K inside host (_family): the
spanning subgraphs of a host (empty base), the extensions of a partial graph
F (base F, host K_n) and the switching classes (K_d(F) with e and without f
is base {e}, host F - f).  Its search runs over host minus base.

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
from operator import itemgetter

from .graphs import (
    SimpleGraph,
    canonical_labeling,
    checked_pair,
    complete_graph,
    difference,
    empty_graph,
    _pair_bits,
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


# -- families: the d-regular K with base inside K inside host ------------------

def _family(base: SimpleGraph, host: SimpleGraph, d: int):
    """(searched graph, target) of the d-regular K with base inside K inside host:
    the subgraphs S of host minus base with degrees d - deg_base, K = base + S.
    An edgeless base searches the host itself, uncopied."""
    _check_capacity(host.n)
    searched = difference(host, base) if any(base.adj) else host
    return searched, [0] + [d - row.bit_count() for row in base.adj[1:]]


def _spanning(host: SimpleGraph):
    """(base, host) of the d-regular spanning subgraphs of host."""
    return empty_graph(host.n), host


def _completions(f: SimpleGraph):
    """(base, host) of the d-regular graphs on {1..n} containing f."""
    return f, complete_graph(f.n)


def _count(base: SimpleGraph, host: SimpleGraph, d: int) -> int:
    g, target = _family(base, host, d)
    return _private_search(g.adj, g.n, target)[0]


# -- counting operations -------------------------------------------------------

def count_regular_spanning_subgraphs(host: SimpleGraph, d: int) -> int:
    """Exact number of d-regular spanning subgraphs of the host: 0, not an
    error, when dn is odd or no subgraph exists, d outside 0..n-1 included."""
    return _count(*_spanning(host), d)


def count_with_edge(host: SimpleGraph, d: int, e) -> int:
    """Exact number of d-regular spanning subgraphs of the host containing e."""
    u, v = checked_pair(host, e)
    if not host.has_edge(u, v):
        raise ValueError(f"edge {u}-{v} not in host")
    return _count(SimpleGraph(host.n, [(u, v)]), host, d)


def count_extensions(f: SimpleGraph, d: int) -> int:
    """Exact number of d-regular graphs on {1..n} containing f, searched over
    its completions directly (not through the complement-count dual)."""
    return _count(*_completions(f), d)


def count_extensions_with_edge(f: SimpleGraph, d: int, e) -> int:
    """Exact |{K d-regular : f + e inside K}| for a non-edge e of f."""
    u, v = checked_pair(f, e)
    if f.has_edge(u, v):
        raise ValueError(f"edge {u}-{v} already in the partial graph")
    return count_extensions(f.with_edge(u, v), d)


# -- enumeration ---------------------------------------------------------------

def _enumerate(base: SimpleGraph, host: SimpleGraph, d: int):
    """Every d-regular K with base inside K inside host, in canonical_key order,
    so a family inside a larger one lists its members in the larger one's order.

    The searched graph shares no edge with base, so each K is base's rows
    with a found subgraph's edges set, with no edge re-checked, and its edge
    mask, which orders the graphs as canonical_key does, is base's mask with
    the subgraph's pair bits set.
    """
    g, target = _family(base, host, d)
    total, root, tables = _private_search(g.adj, g.n, target)
    if not total:
        return
    n = g.n
    bit = _pair_bits(n)
    base_mask = base.edge_mask()
    found = []
    for edges in _subgraphs(root, n, tables):
        rows = list(base.adj)
        mask = base_mask
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            mask |= bit[u][v]
        found.append((mask, SimpleGraph._from_rows(n, rows)))
    found.sort(key=itemgetter(0))
    for _, h in found:
        yield h


def enumerate_regular(host: SimpleGraph, d: int):
    """Yield every d-regular spanning subgraph of the host, in canonical_key order."""
    yield from _enumerate(*_spanning(host), d)


def enumerate_extensions(f: SimpleGraph, d: int):
    """Yield every d-regular graph on {1..n} containing f, in canonical_key order."""
    yield from _enumerate(*_completions(f), d)


# -- edge profiles (used by the coupling processes) ---------------------------

def _profile_entry(g: SimpleGraph, d: int, family, cache):
    """Profile over the family (_spanning or _completions) of g, from the
    cache entry of the searched graph's isomorphism class.

    A miss searches the certificate's rows, with the target moved to
    canonical labels, and stores the per-edge counts in those labels.  Every
    call, miss or hit, maps them back through the inverse relabeling into a
    fresh dict sorted by edge.
    """
    cache = DEFAULT_CACHE if cache is None else cache
    n = g.n
    # _family checks the capacity before g is labeled, slow above it
    searched, target = _family(*family(g), d)
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
