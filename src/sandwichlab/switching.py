"""Alternating-path counting and the switching constructions built on it.

A path here is always simple and alternates between two edge sets; lengths
count edges.  Between-endpoint counts treat paths as undirected with a
designated start, so each path is counted exactly once.  A switching is an
alternating cycle: a closed vertex sequence whose pairs alternate between
edges of K and non-edges.  Applying it flips every pair (graphs.toggle),
carrying one regular graph to another; the result's edge mask is the
source's with the cycle's pair bits flipped, so the auxiliary graphs key it
without building it.  Each switching kind has one cycle source that
checks the arguments not depending on K and returns cycles(k, reverse=False),
the cycles out of the left class (with reverse=True, out of the right one).
Its neighbor list (whose length is the switching degree) and its auxiliary
bipartite graph, which records every switching between the two classes for an
exact double count, read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import (
    SimpleGraph,
    canonical_pair,
    check_vertex,
    checked_pair,
    complement,
    difference,
    edges_inside,
    is_regular,
    toggle,
    vertex_mask,
    _bits,
    _pair_bits,
    _toggled_mask,
)
from .oracle import enumerate_extensions, enumerate_regular


# -- core enumeration ---------------------------------------------------------

def _alt_paths(odd_rows, even_rows, x, length, y, avoid_mask):
    """Yield the vertex tuples of the simple alternating paths of `length`
    edges from x.

    Edge j uses odd_rows for odd j and even_rows for even j.  Intermediate
    vertices avoid avoid_mask; the final vertex must be y when y is given,
    otherwise it is any vertex outside avoid_mask.  The rows must be
    symmetric (w in rows[v] iff v in rows[w]): with y given, y is kept out of
    the intermediate vertices and the vertex before it is drawn from y's own
    row of the last edge's set, so no branch is entered that cannot end at y.
    """
    path = [x]
    # allowed[j]: where the vertex reached by edge j may lie, besides unvisited
    allowed = [~avoid_mask] * (length + 1)
    if y is not None:
        allowed = [~(avoid_mask | (1 << y))] * length
        allowed[-1] &= (odd_rows if length & 1 else even_rows)[y]

    def rec(v, visited, j):
        row = odd_rows[v] if j & 1 else even_rows[v]
        if j == length:
            if y is not None:
                if (row >> y) & 1 and not (visited >> y) & 1:
                    path.append(y)
                    yield tuple(path)
                    path.pop()
            else:
                for w in _bits(row & ~visited & allowed[j]):
                    path.append(w)
                    yield tuple(path)
                    path.pop()
            return
        for w in _bits(row & ~visited & allowed[j]):
            path.append(w)
            yield from rec(w, visited | (1 << w), j + 1)
            path.pop()

    yield from rec(x, 1 << x, 1)


def alternating_paths(f: SimpleGraph, k: SimpleGraph, x: int, length: int,
                      y: int = None, avoid=(), start_in_k: bool = False):
    """Vertex tuples of the simple paths of `length` edges alternating
    (F\\K, K) from x, after checking every argument.

    The first edge lies in F\\K unless start_in_k; intermediate vertices must
    avoid the given set; with y given the paths run from x to y.  The
    arguments are checked when this is called, before any path is walked.
    """
    if f.n != k.n:
        raise ValueError("graphs must share a vertex set")
    if length < 1:
        raise ValueError("length must be positive")
    for v in (x, *avoid):
        check_vertex(f, v)
    avoid_mask = vertex_mask(avoid)
    if y is not None:
        check_vertex(f, y)
        if y == x:
            raise ValueError("endpoints must be distinct")
        if avoid_mask & ((1 << x) | (1 << y)):
            raise ValueError("avoid set must not contain the endpoints")
    fk = difference(f, k)
    first, second = (k.adj, fk.adj) if start_in_k else (fk.adj, k.adj)
    return _alt_paths(first, second, x, length, y, avoid_mask)


def count_alternating(f: SimpleGraph, k: SimpleGraph, x: int, length: int,
                      y: int = None, avoid=(), start_in_k: bool = False) -> int:
    """Exact count of the paths alternating_paths yields."""
    return sum(1 for _ in alternating_paths(f, k, x, length, y, avoid, start_in_k))


def weighted_endpoint_sum(f: SimpleGraph, k: SimpleGraph, v: int, i: int) -> int:
    """Sum of d_{F\\K}(u) over (K, F\\K)-alternating v,u-paths of length 2i-1."""
    if i < 1:
        raise ValueError("i must be positive")
    paths = alternating_paths(f, k, v, 2 * i - 1, start_in_k=True)
    fk = difference(f, k)
    return sum(fk.degree(p[-1]) for p in paths)


# -- cycle switchings -----------------------------------------------------------

def _check_member(k: SimpleGraph, d: int, host=None, partial=None, has=None,
                  lacks=None):
    """Refuse a K outside the host or not around the partial graph, one
    missing the (name, edge) `has` or holding the (name, edge) `lacks`, or
    one that is not d-regular."""
    if host is not None and not k.is_subgraph_of(host):
        raise ValueError("K must be a subgraph of the host")
    if partial is not None and not partial.is_subgraph_of(k):
        raise ValueError("the partial graph must lie inside K")
    if has and not k.has_edge(*has[1]):
        raise ValueError(f"{has[0]} must be an edge of K")
    if lacks and k.has_edge(*lacks[1]):
        raise ValueError(f"{lacks[0]} must be absent from K")
    if not is_regular(k, d):
        raise ValueError("K must be d-regular")


def _two_path_source(rows, e, f_edge, length: int):
    """Cycle source of the switchings through e and f_edge made of two
    vertex-disjoint paths, one from each endpoint of e to an endpoint of
    f_edge (both pairings admitted); reverse swaps e and f_edge.  Each path
    has `length` edges alternating the rows (odd_rows, even_rows) = rows(k),
    added to K and removed from it.  The cycle runs out along the first path,
    across f_edge, back along the second and across e."""
    def cycles(k: SimpleGraph, reverse: bool = False):
        (u1, u2), (v1, v2) = (f_edge, e) if reverse else (e, f_edge)
        odd_rows, even_rows = rows(k)
        for w1, w2 in ((v1, v2), (v2, v1)):
            avoid1 = (1 << u2) | (1 << w2)
            for p1 in _alt_paths(odd_rows, even_rows, u1, length, w1, avoid1):
                for p2 in _alt_paths(odd_rows, even_rows, u2, length, w2,
                                     vertex_mask(p1)):
                    yield p1 + p2[::-1]
    return cycles


def _le_source(f: SimpleGraph, e, ell: int):
    """le cycles: e plus a path of length 2*ell+1 between its endpoints,
    alternating (F\\K, K) out of a K with e, (K, F\\K) out of one without."""
    u, v = checked_pair(f, e)
    if not f.has_edge(u, v):
        raise ValueError("e must be an edge of the host")
    if ell < 1:
        raise ValueError("ell must be positive")
    length = 2 * ell + 1

    def cycles(k: SimpleGraph, reverse: bool = False):
        fk = difference(f, k).adj
        odd, even = (k.adj, fk) if reverse else (fk, k.adj)
        return _alt_paths(odd, even, u, length, v, 0)
    return cycles


def switch_neighbors_le(f: SimpleGraph, d: int, k: SimpleGraph, e, ell: int) -> list:
    """All K' in K_d(F) without e whose symmetric difference with K is one
    (2*ell+2)-cycle (necessarily through e).

    The cycle minus e is an (F\\K, K)-alternating path of length 2*ell+1
    between e's endpoints, so each such path gives one neighbor.
    """
    cycles = _le_source(f, e, ell)
    _check_member(k, d, host=f, has=("e", e))
    return [toggle(k, c) for c in cycles(k)]


def switch_neighbors_le_absent(f: SimpleGraph, d: int, k: SimpleGraph, e,
                               ell: int) -> list:
    """Mirror of switch_neighbors_le from the side that lacks e: all K' with
    e in E(K') whose symmetric difference with K is one (2*ell+2)-cycle."""
    cycles = _le_source(f, e, ell)
    _check_member(k, d, host=f, lacks=("e", e))
    return [toggle(k, c) for c in cycles(k, reverse=True)]


def _lef_source(f: SimpleGraph, e, f_edge, ell: int):
    """lef cycles: two (F\\K, K)-alternating paths of length 2*ell+2 from e
    to f_edge; reverse swaps e and f_edge."""
    e, f_edge = checked_pair(f, e), checked_pair(f, f_edge)
    for name, edge in (("e", e), ("f", f_edge)):
        if not f.has_edge(*edge):
            raise ValueError(f"{name} must be an edge of the host")
    if len({*e, *f_edge}) != 4:
        raise ValueError("e and f must share no vertices")
    if ell < 1:
        raise ValueError("ell must be positive")
    return _two_path_source(lambda k: (difference(f, k).adj, k.adj),
                            e, f_edge, 2 * ell + 2)


def switch_neighbors_lef(f: SimpleGraph, d: int, k: SimpleGraph, e, f_edge,
                         ell: int) -> list:
    """All K' in K_d(F) with f but not e reachable by a two-path switching.

    The symmetric difference minus {e, f} is two vertex-disjoint paths, each
    alternating (F\\K, K) of length 2*ell+2, starting at an endpoint of e and
    ending at an endpoint of f.  (Equivalently, each path alternates between
    K'\\K and K\\K', which is the same edge pattern read relative to K'.)
    Both endpoint pairings are admitted since the labeling of e and f is
    arbitrary; the relation is symmetric under swapping (K, e) with (K', f).
    """
    cycles = _lef_source(f, e, f_edge, ell)
    _check_member(k, d, host=f, has=("e", e), lacks=("f", f_edge))
    return [toggle(k, c) for c in cycles(k)]


# -- six-cycle switchings ---------------------------------------------------------

def six_cycle_statistic(k: SimpleGraph, wprime, mode: str) -> int:
    """The quantity the six-cycle switchings walk down.

    two-in: edge count inside the set; one-in: sum over outside vertices of
    max(degree into the set - 1, 0).
    """
    for v in wprime:
        check_vertex(k, v)
    wmask = vertex_mask(wprime)
    if mode == "two-in":
        return edges_inside(k, wprime)
    if mode == "one-in":
        return sum(max((k.adj[v] & wmask).bit_count() - 1, 0)
                   for v in range(1, k.n + 1) if not (wmask >> v) & 1)
    raise ValueError(f"unknown mode {mode!r}")


def _six_cycles(k: SimpleGraph, wmask: int, mode: str, reverse: bool):
    """Alternating 6-cycles (v1, ..., v6) realizing a unit move of the statistic.

    v1v2, v3v4 and v5v6 are in `first` and v2v3, v4v5 and v6v1 in `second`.
    Forward cycles take `first` from K, so flipping them removes three
    K-edges, adds three non-edges and lowers the statistic by exactly 1;
    reverse=True takes `first` from the non-edges, the mirror cycles that
    raise it by exactly 1 (the same relation seen from the other class).

    Each cycle is met once.  In two-in mode v1 and v2 are its only W'
    vertices and v1v2 is a `first` edge, so the walk from (v2, v1) in the
    other direction finds the same cycle; only starts with v1 < v2 are taken.
    In one-in mode v1 is its only W' vertex and the walk must leave it along
    the one cycle edge at v1 that is in `first`, so the start is already
    unique.

    The walk is pruned from its closing end: for each v1 the vertices v6 may
    take (in second[v1], outside W', and in one-in mode within the W'-degree
    bound) give reach5, every vertex with a `first` edge to one of them, and
    reach4, every vertex with a `second` edge into reach5.  The rows are
    symmetric, so v5 and v4 outside these masks could not close the cycle;
    the masks drop only such branches, and the cycles come in the same order
    as from the unpruned walk.
    """
    n = k.n
    adj = k.adj
    full = (1 << (n + 1)) - 2
    non = [0] + [(full & ~adj[v]) & ~(1 << v) for v in range(1, n + 1)]
    first, second = (adj, non) if not reverse else (non, adj)
    outside = full & ~wmask
    if mode == "two-in":
        ends = outside
    else:
        # one-in bounds on the W'-degrees of v2 (at least) and v6 (at most)
        min2, max6 = (1, 1) if reverse else (2, 0)
        wdeg = [(row & wmask).bit_count() for row in adj]
        ends = outside & vertex_mask(v for v in range(1, n + 1)
                                     if wdeg[v] <= max6)
    for v1 in _bits(wmask & full):
        if mode == "two-in":
            v2s = [v2 for v2 in _bits(first[v1] & wmask) if v2 > v1]
        else:
            v2s = [v2 for v2 in _bits(first[v1] & outside) if wdeg[v2] >= min2]
        ends6 = second[v1] & ends
        if not (v2s and ends6):
            continue
        reach5 = 0
        for v6 in _bits(ends6):
            reach5 |= first[v6]
        reach5 &= outside
        reach4 = 0
        for v5 in _bits(reach5):
            reach4 |= second[v5]
        reach4 &= outside
        for v2 in v2s:
            used12 = (1 << v1) | (1 << v2)
            for v3 in _bits(second[v2] & outside & ~used12):
                used3 = used12 | (1 << v3)
                for v4 in _bits(first[v3] & reach4 & ~used3):
                    used4 = used3 | (1 << v4)
                    for v5 in _bits(second[v4] & reach5 & ~used4):
                        for v6 in _bits(first[v5] & ends6 & ~(used4 | (1 << v5))):
                            yield (v1, v2, v3, v4, v5, v6)


def _six_source(wprime, mode: str):
    """six-cycle cycles, walked by _six_cycles; with no host, W' is checked
    against each K's vertex range."""
    if mode not in ("two-in", "one-in"):
        raise ValueError(f"unknown mode {mode!r}")
    wprime = tuple(wprime)

    def cycles(k: SimpleGraph, reverse: bool = False):
        for v in wprime:
            check_vertex(k, v)
        return _six_cycles(k, vertex_mask(wprime), mode, reverse)
    return cycles


def six_cycle_switches(k: SimpleGraph, wprime, mode: str,
                       reverse: bool = False) -> list:
    """Apply every qualifying six-cycle switching; returns the switched graphs."""
    return [toggle(k, c) for c in _six_source(wprime, mode)(k, reverse)]


# -- ten-cycle switchings ----------------------------------------------------------

def _ten_source(f: SimpleGraph, e, f_edge):
    """ten cycles, f the partial graph: two length-4 paths alternating
    (complement of K, K\\F) from e to f_edge; reverse swaps e and f_edge."""
    e, f_edge = checked_pair(f, e), checked_pair(f, f_edge)
    if f.has_edge(*e) or f.has_edge(*f_edge):
        raise ValueError("e and f must be absent from the partial graph")
    if len({*e, *f_edge}) != 4:
        raise ValueError("e and f must share no vertices")
    return _two_path_source(lambda k: (complement(k).adj, difference(k, f).adj),
                            e, f_edge, 4)


def ten_cycle_switches(f: SimpleGraph, d: int, k: SimpleGraph, e, f_edge) -> list:
    """All K' containing F+f but not e whose symmetric difference with K is a
    10-cycle carrying e and f on opposite sides.

    The cycle minus {e, f} is two vertex-disjoint length-4 paths alternating
    (complement of K, K\\F), one from each endpoint of e to an endpoint of f;
    both endpoint pairings are admitted.
    """
    cycles = _ten_source(f, e, f_edge)
    _check_member(k, d, partial=f, has=("e", e), lacks=("f", f_edge))
    return [toggle(k, c) for c in cycles(k)]


# -- auxiliary bipartite graphs -----------------------------------------------------

@dataclass
class SwitchingGraph:
    """Bipartite record of every switching between two families.

    left_degrees come from enumerating switchings out of the left class,
    right_degrees from the independent reverse enumeration out of the right
    class; the two routes must tell one consistent story.
    """

    kind: str
    left: list
    right: list
    edges: list
    left_degrees: dict
    right_degrees: dict
    cross_consistent: bool = True
    meta: dict = field(default_factory=dict)


def verify_double_count(graph: SwitchingGraph) -> dict:
    """Exact double count: sum of left degrees = sum of right degrees = e(L)."""
    left = [graph.left_degrees.get(k, 0) for k in graph.left]
    right = [graph.right_degrees.get(k, 0) for k in graph.right]
    n_edges = len(graph.edges)
    return {
        "kind": graph.kind,
        "edges": n_edges,
        "left_sum": sum(left),
        "right_sum": sum(right),
        "left_min": min(left, default=0),
        "left_max": max(left, default=0),
        "right_min": min(right, default=0),
        "right_max": max(right, default=0),
        "cross_consistent": graph.cross_consistent,
        "passed": sum(left) == sum(right) == n_edges and graph.cross_consistent,
    }


def _bipartite_from_switches(kind, left_graphs, cycles, meta):
    """Assemble a SwitchingGraph from a kind's cycle source.

    cycles(K) yields the switching cycles out of a left member and
    cycles(K', True) those out of a right member.  Members share one vertex
    count n, so each is keyed by its edge mask alone, and an output's mask
    is its source's mask with the cycle's pair bits flipped.  A right member
    is kept as the (left member, cycle) that first reached it, and its graph
    is built only for its reverse enumeration.  Reverse outputs are
    intersected with the left class so the double count is over exactly the
    recorded edges.  An edge is the int left mask << width | right mask,
    which sorts as the (left key, right key) pair; the keys (n, mask) are
    made once per member at the end.
    """
    left = {g.edge_mask(): g for g in left_graphs}
    if not left:
        return SwitchingGraph(kind, [], [], [], {}, {}, True, meta)
    n = next(iter(left.values())).n
    bit = _pair_bits(n)
    width = n * (n - 1) // 2
    low = (1 << width) - 1
    forward_edges = set()
    left_degrees = {}
    right_members = {}
    for mask, g in left.items():
        degree = 0
        for c in cycles(g):
            hm = _toggled_mask(bit, mask, c)
            if hm not in right_members:
                right_members[hm] = (g, c)
            forward_edges.add(mask << width | hm)
            degree += 1
        left_degrees[mask] = degree
    right_masks = sorted(right_members)
    reverse_edges = set()
    right_degrees = {}
    for hm in right_masks:
        h = toggle(*right_members[hm])
        inside = [bm for bm in (_toggled_mask(bit, hm, c) for c in cycles(h, True))
                  if bm in left]
        right_degrees[hm] = len(inside)
        reverse_edges.update(bm << width | hm for bm in inside)
    key = {mask: (n, mask) for mask in (*left, *right_masks)}
    return SwitchingGraph(
        kind=kind,
        left=[key[mask] for mask in sorted(left)],
        right=[key[hm] for hm in right_masks],
        edges=[(key[edge >> width], key[edge & low]) for edge in sorted(forward_edges)],
        left_degrees={key[mask]: degree for mask, degree in left_degrees.items()},
        right_degrees={key[hm]: degree for hm, degree in right_degrees.items()},
        cross_consistent=forward_edges == reverse_edges,
        meta=meta,
    )


def build_le_graph(f: SimpleGraph, d: int, e, ell: int) -> SwitchingGraph:
    """Full auxiliary graph between the K_d(F) members with and without e."""
    cycles = _le_source(f, e, ell)
    e = canonical_pair(*e)
    return _bipartite_from_switches(
        "le", [k for k in enumerate_regular(f, d) if k.has_edge(*e)], cycles,
        meta={"e": e, "ell": ell})


def build_lef_graph(f: SimpleGraph, d: int, e, f_edge, ell: int) -> SwitchingGraph:
    """Full auxiliary graph between the e-but-not-f and f-but-not-e classes."""
    cycles = _lef_source(f, e, f_edge, ell)
    e, f_edge = canonical_pair(*e), canonical_pair(*f_edge)
    return _bipartite_from_switches(
        "lef",
        [k for k in enumerate_regular(f, d)
         if k.has_edge(*e) and not k.has_edge(*f_edge)],
        cycles, meta={"e": e, "f": f_edge, "ell": ell})


def build_six_cycle_graph(d: int, wprime, mode: str, left_members) -> SwitchingGraph:
    """Auxiliary graph out of a family of regular graphs sharing one statistic
    value, with edges the unit-decreasing six-cycle switchings."""
    cycles = _six_source(wprime, mode)
    left_members = list(left_members)
    if len({k.n for k in left_members}) > 1:
        raise ValueError("left members must share one vertex count")
    if not all(is_regular(k, d) for k in left_members):
        raise ValueError(f"left members must be {d}-regular")
    values = {six_cycle_statistic(k, wprime, mode) for k in left_members}
    if len(values) > 1:
        raise ValueError(f"left class mixes statistic values {sorted(values)}")
    return _bipartite_from_switches(
        f"six-{mode}", left_members, cycles,
        meta={"wprime": sorted(set(wprime)), "mode": mode,
              "stat": values.pop() if values else None})


def build_ten_cycle_graph(f: SimpleGraph, d: int, e, f_edge) -> SwitchingGraph:
    """Full auxiliary graph between the extension classes of F+e and F+f."""
    cycles = _ten_source(f, e, f_edge)
    e, f_edge = canonical_pair(*e), canonical_pair(*f_edge)
    return _bipartite_from_switches(
        "ten",
        [k for k in enumerate_extensions(f.with_edge(*e), d)
         if not k.has_edge(*f_edge)],
        cycles, meta={"e": e, "f": f_edge})
