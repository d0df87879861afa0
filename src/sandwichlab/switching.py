"""Alternating-path counting and the switching constructions built on it.

A path here is always simple and alternates between two edge sets; lengths
count edges.  Between-endpoint counts treat paths as undirected with a
designated start, so each path is counted exactly once.  A switching is an
alternating cycle: a closed vertex sequence whose pairs alternate between
edges of K and non-edges.  Applying it flips every pair, carrying one
regular graph to another, so it is carried as its flips: the XOR of its
pairs' bits in edge_mask's layout (graphs._pair_bits).  The result's edge
mask is the source's XOR the flips, so the auxiliary graphs key it without
building it.  Each switching kind has one cycle source that checks the
arguments not depending on K and returns cycles(k, reverse=False), which
walks the cycles out of the left class (with reverse=True, out of the right
one) and yields their flips.  Its neighbor list (whose length is the
switching degree) and its auxiliary bipartite graph, which records every
switching between the two classes for an exact double count, read it.  The
two-path kinds (lef, ten) also return can_switch(members), a bound that
tells a whole family in one walk that no member can switch.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import and_, or_

from .graphs import (
    SimpleGraph,
    canonical_pair,
    check_vertex,
    checked_pair,
    complete_graph,
    difference,
    graph_from_mask,
    is_regular,
    vertex_mask,
    _bits,
    _pair_bits,
    _toggled_mask,
)
from .oracle import _enumerate


# -- core enumeration ---------------------------------------------------------

def _alt_paths(odd_rows, even_rows, x, length, y, avoid_mask):
    """Yield the vertex tuples of the simple alternating paths of `length`
    edges from x, in lexicographic order.

    Edge j uses odd_rows for odd j and even_rows for even j.  Intermediate
    vertices avoid avoid_mask; the final vertex must be y when y is given,
    otherwise it is any vertex outside avoid_mask.  The rows must be
    symmetric (w in rows[v] iff v in rows[w]).  With y given the walk is
    pruned from both ends: y is kept out of the intermediate vertices, and
    the vertex reached by edge j must lie in the backward reach of y, the
    intermediate vertices from which edges j+1, ..., length can lead to y
    (repeats allowed).  Level length-1 is y's own row of the last edge's
    set and each earlier level is the union of the next one's rows, so the
    masks drop only branches that cannot end at y, and the paths come in
    the same order as from the unpruned walk.
    """
    path = [x]
    # allowed[j]: where the vertex reached by edge j may lie, besides unvisited
    allowed = [~avoid_mask] * (length + 1)
    if y is not None:
        back = allowed[length] = 1 << y
        inner = ~(avoid_mask | back)
        for j in range(length - 1, 0, -1):
            rows = odd_rows if (j + 1) & 1 else even_rows
            reach = 0
            for w in _bits(back):
                reach |= rows[w]
            back = allowed[j] = reach & inner
            if not back:
                return

    def rec(v, visited, j):
        row = odd_rows[v] if j & 1 else even_rows[v]
        for w in _bits(row & ~visited & allowed[j]):
            path.append(w)
            if j == length:
                yield tuple(path)
            else:
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


def _neighbors(k: SimpleGraph, flips) -> list:
    """The graphs K switched by each of the given flip masks."""
    mask = k.edge_mask()
    return [graph_from_mask(k.n, mask ^ f) for f in flips]


def _complement_rows(adj) -> list:
    """The rows of the complement of the graph with rows adj (row 0 stays 0)."""
    return [o & ~a for o, a in zip(_others(len(adj) - 1), adj)]


@lru_cache(maxsize=None)
def _others(n: int) -> tuple:
    """others[v]: the mask of every vertex of 1..n but v; others[0] is 0."""
    full = (1 << (n + 1)) - 2
    return (0, *(full & ~(1 << v) for v in range(1, n + 1)))


def _two_path_cycles(odd_rows, even_rows, ends, length: int, bit):
    """Yield the flips of the two-path cycles through the pairs
    ends = ((u1, u2), (v1, v2)) over the given rows.

    For each pairing (w1, w2) of v1, v2 the first halves (u1 to w1, avoiding
    u2 and w2) and the second halves (u2 to w2, avoiding u1 and w1) are each
    walked once, and every vertex-disjoint pair is joined: the cycle runs
    out along the first half, across w1w2, back along the second and across
    u2u1.  The first halves come in walk order and, for each, the second
    halves disjoint from it in walk order, as if the second half were walked
    avoiding the first.
    """
    (u1, u2), (v1, v2) = ends
    for w1, w2 in ((v1, v2), (v2, v1)):
        firsts = list(_alt_paths(odd_rows, even_rows, u1, length, w1,
                                 (1 << u2) | (1 << w2)))
        if not firsts:
            continue
        seconds = [(vertex_mask(p2), p2[::-1]) for p2 in
                   _alt_paths(odd_rows, even_rows, u2, length, w2,
                              (1 << u1) | (1 << w1))]
        for p1 in firsts:
            mask1 = vertex_mask(p1)
            for mask2, p2 in seconds:
                if not mask1 & mask2:
                    yield _toggled_mask(bit, 0, p1 + p2)


def _two_path_source(rows, e, f_edge, length: int):
    """(cycles, can_switch) of the switchings through e and f_edge made of
    two vertex-disjoint paths, one from each endpoint of e to an endpoint of
    f_edge (both pairings admitted); reverse swaps e and f_edge.  Each path
    has `length` edges alternating the row lists (odd_rows, even_rows) =
    rows(lo, hi), added to K and removed from it (_two_path_cycles).

    rows(lo, hi) is written for any K whose rows lie between lo and hi, each
    of its row lists growing with hi and shrinking with lo; lo = hi = K.adj
    gives K's own.  can_switch(members) is False only when no member has a
    cycle out of the left class: with lo and hi the AND and the OR of the
    members' rows, every member's paths are paths of rows(lo, hi), which is
    walked once in their place.
    """
    def cycles(k: SimpleGraph, reverse: bool = False):
        ends = (f_edge, e) if reverse else (e, f_edge)
        return _two_path_cycles(*rows(k.adj, k.adj), ends, length, _pair_bits(k.n))

    def can_switch(members) -> bool:
        columns = list(zip(*(k.adj for k in members)))
        lo = [reduce(and_, column) for column in columns]
        hi = [reduce(or_, column) for column in columns]
        found = _two_path_cycles(*rows(lo, hi), (e, f_edge), length,
                                 _pair_bits(len(columns) - 1))
        return next(found, None) is not None
    return cycles, can_switch


def _le_source(f: SimpleGraph, e, ell: int):
    """le cycles: e plus a path of length 2*ell+1 between its endpoints,
    alternating (F\\K, K) out of a K with e, (K, F\\K) out of one without."""
    u, v = checked_pair(f, e)
    if not f.has_edge(u, v):
        raise ValueError("e must be an edge of the host")
    if ell < 1:
        raise ValueError("ell must be positive")
    length = 2 * ell + 1
    bit = _pair_bits(f.n)

    def cycles(k: SimpleGraph, reverse: bool = False):
        fk = [a & ~b for a, b in zip(f.adj, k.adj)]
        odd, even = (k.adj, fk) if reverse else (fk, k.adj)
        return (_toggled_mask(bit, 0, c)
                for c in _alt_paths(odd, even, u, length, v, 0))
    return cycles


def switch_neighbors_le(f: SimpleGraph, d: int, k: SimpleGraph, e, ell: int) -> list:
    """All K' in K_d(F) without e whose symmetric difference with K is one
    (2*ell+2)-cycle (necessarily through e).

    The cycle minus e is an (F\\K, K)-alternating path of length 2*ell+1
    between e's endpoints, so each such path gives one neighbor.
    """
    cycles = _le_source(f, e, ell)
    _check_member(k, d, host=f, has=("e", e))
    return _neighbors(k, cycles(k))


def switch_neighbors_le_absent(f: SimpleGraph, d: int, k: SimpleGraph, e,
                               ell: int) -> list:
    """Mirror of switch_neighbors_le from the side that lacks e: all K' with
    e in E(K') whose symmetric difference with K is one (2*ell+2)-cycle."""
    cycles = _le_source(f, e, ell)
    _check_member(k, d, host=f, lacks=("e", e))
    return _neighbors(k, cycles(k, reverse=True))


def _lef_source(f: SimpleGraph, e, f_edge, ell: int):
    """lef (cycles, can_switch): two (F\\K, K)-alternating paths of length
    2*ell+2 from e to f_edge; reverse swaps e and f_edge."""
    e, f_edge = checked_pair(f, e), checked_pair(f, f_edge)
    for name, edge in (("e", e), ("f", f_edge)):
        if not f.has_edge(*edge):
            raise ValueError(f"{name} must be an edge of the host")
    if len({*e, *f_edge}) != 4:
        raise ValueError("e and f must share no vertices")
    if ell < 1:
        raise ValueError("ell must be positive")
    return _two_path_source(
        lambda lo, hi: ([a & ~b for a, b in zip(f.adj, lo)], hi),
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
    cycles, _ = _lef_source(f, e, f_edge, ell)
    _check_member(k, d, host=f, has=("e", e), lacks=("f", f_edge))
    return _neighbors(k, cycles(k))


# -- six-cycle switchings ---------------------------------------------------------

def _wprime_mask(k: SimpleGraph, wprime) -> int:
    """W' as a vertex mask, once each of its vertices is checked against K."""
    for v in wprime:
        check_vertex(k, v)
    return vertex_mask(wprime)


def _six_statistic(adj, wmask: int, mode: str) -> int:
    """six_cycle_statistic from the rows adj and a checked W' mask.

    one-in: the sum over outside vertices of max(c_v - 1, 0), c_v the
    vertex's W'-degree, is the edge count between W' and the outside less
    the number of outside vertices with c_v >= 1.
    """
    if mode == "two-in":
        return sum((adj[w] & wmask).bit_count() for w in _bits(wmask)) // 2
    outside = ~wmask
    between = touched = 0
    for w in _bits(wmask):
        between += (adj[w] & outside).bit_count()
        touched |= adj[w]
    return between - (touched & outside).bit_count()


def six_cycle_statistic(k: SimpleGraph, wprime, mode: str) -> int:
    """The quantity the six-cycle switchings walk down.

    two-in: edge count inside the set; one-in: sum over outside vertices of
    max(degree into the set - 1, 0).
    """
    wmask = _wprime_mask(k, wprime)
    if mode not in ("two-in", "one-in"):
        raise ValueError(f"unknown mode {mode!r}")
    return _six_statistic(k.adj, wmask, mode)


def _six_cycles(k: SimpleGraph, wmask: int, mode: str, reverse: bool):
    """Yield the flips of the alternating 6-cycles (v1, ..., v6) realizing a
    unit move of the statistic, built up one pair per loop level.

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
    adj = k.adj
    bit = _pair_bits(k.n)
    non = _complement_rows(adj)
    first, second = (adj, non) if not reverse else (non, adj)
    outside = ((1 << (k.n + 1)) - 2) & ~wmask
    if mode == "two-in":
        ends = outside
    else:
        # one-in bounds on the W'-degrees of v2 (at least 2 forward, 1
        # reverse) and v6 (at most 0 forward, 1 reverse)
        once = twice = 0
        for w in _bits(wmask):
            twice |= once & adj[w]
            once |= adj[w]
        starts = outside & (once if reverse else twice)
        ends = outside & ~(twice if reverse else once)
    for v1 in _bits(wmask):
        if mode == "two-in":
            v2s = _bits(first[v1] & wmask & (-1 << (v1 + 1)))
        else:
            v2s = _bits(first[v1] & starts)
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
        bit1 = bit[v1]
        for v2 in v2s:
            used12 = (1 << v1) | (1 << v2)
            bit2 = bit[v2]
            flips2 = bit1[v2]
            for v3 in _bits(second[v2] & outside & ~used12):
                used3 = used12 | (1 << v3)
                bit3 = bit[v3]
                flips3 = flips2 ^ bit2[v3]
                for v4 in _bits(first[v3] & reach4 & ~used3):
                    used4 = used3 | (1 << v4)
                    bit4 = bit[v4]
                    flips4 = flips3 ^ bit3[v4]
                    for v5 in _bits(second[v4] & reach5 & ~used4):
                        bit5 = bit[v5]
                        flips5 = flips4 ^ bit4[v5]
                        for v6 in _bits(first[v5] & ends6 & ~(used4 | (1 << v5))):
                            yield flips5 ^ bit5[v6] ^ bit1[v6]


def _six_source(wprime, mode: str):
    """six-cycle cycles, walked by _six_cycles; with no host, W' is checked
    against each vertex count it meets, once."""
    if mode not in ("two-in", "one-in"):
        raise ValueError(f"unknown mode {mode!r}")
    wprime = tuple(wprime)
    wmasks = {}

    def cycles(k: SimpleGraph, reverse: bool = False):
        wmask = wmasks.get(k.n)
        if wmask is None:
            wmask = wmasks[k.n] = _wprime_mask(k, wprime)
        return _six_cycles(k, wmask, mode, reverse)
    return cycles


def six_cycle_switches(k: SimpleGraph, wprime, mode: str,
                       reverse: bool = False) -> list:
    """Apply every qualifying six-cycle switching; returns the switched graphs."""
    return _neighbors(k, _six_source(wprime, mode)(k, reverse))


# -- ten-cycle switchings ----------------------------------------------------------

def _ten_source(f: SimpleGraph, e, f_edge):
    """ten (cycles, can_switch), f the partial graph: two length-4 paths
    alternating (complement of K, K\\F) from e to f_edge; reverse swaps e
    and f_edge."""
    e, f_edge = checked_pair(f, e), checked_pair(f, f_edge)
    if f.has_edge(*e) or f.has_edge(*f_edge):
        raise ValueError("e and f must be absent from the partial graph")
    if len({*e, *f_edge}) != 4:
        raise ValueError("e and f must share no vertices")
    return _two_path_source(
        lambda lo, hi: (_complement_rows(lo), [a & ~b for a, b in zip(hi, f.adj)]),
        e, f_edge, 4)


def ten_cycle_switches(f: SimpleGraph, d: int, k: SimpleGraph, e, f_edge) -> list:
    """All K' containing F+f but not e whose symmetric difference with K is a
    10-cycle carrying e and f on opposite sides.

    The cycle minus {e, f} is two vertex-disjoint length-4 paths alternating
    (complement of K, K\\F), one from each endpoint of e to an endpoint of f;
    both endpoint pairings are admitted.
    """
    cycles, _ = _ten_source(f, e, f_edge)
    _check_member(k, d, partial=f, has=("e", e), lacks=("f", f_edge))
    return _neighbors(k, cycles(k))


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


def _bipartite_from_switches(kind, left_graphs, cycles, meta, can_switch=None):
    """Assemble a SwitchingGraph from a kind's cycle source.

    cycles(K) yields the flips of the switchings out of a left member and
    cycles(K', True) those out of a right member.  Members share one vertex
    count n, so each is keyed by its edge mask alone, and an output's mask
    is its source's mask XOR the flips.  When can_switch(members) is given
    and False, no member is walked and every left member gets degree 0.  A
    right member's graph is built from its mask only for its reverse
    enumeration, whose outputs are intersected with the left class so the
    double count is over exactly the recorded edges.  The two routes agree
    when every reverse edge is a forward one and there are as many distinct
    reverse edges as forward ones.  An edge is the int left mask << width |
    right mask, which sorts as the (left key, right key) pair; the keys
    (n, mask) are made once per member at the end.
    """
    left = {g.edge_mask(): g for g in left_graphs}
    if not left:
        return SwitchingGraph(kind, [], [], [], {}, {}, True, meta)
    n = next(iter(left.values())).n
    width = n * (n - 1) // 2
    low = (1 << width) - 1
    forward_edges = set()
    left_degrees = dict.fromkeys(left, 0)
    right = set()
    if can_switch is None or can_switch(left.values()):
        for mask, g in left.items():
            outs = [mask ^ flips for flips in cycles(g)]
            left_degrees[mask] = len(outs)
            right.update(outs)
            shifted = mask << width
            forward_edges.update([shifted | hm for hm in outs])
    right_masks = sorted(right)
    right_degrees = {}
    consistent = True
    reverse_count = 0
    for hm in right_masks:
        h = graph_from_mask(n, hm)
        inside = [bm for bm in (hm ^ flips for flips in cycles(h, True)) if bm in left]
        right_degrees[hm] = len(inside)
        edges = {bm << width | hm for bm in inside}
        reverse_count += len(edges)
        consistent = consistent and edges <= forward_edges
    key = {mask: (n, mask) for mask in (*left, *right_masks)}
    return SwitchingGraph(
        kind=kind,
        left=[key[mask] for mask in sorted(left)],
        right=[key[hm] for hm in right_masks],
        edges=[(key[edge >> width], key[edge & low]) for edge in sorted(forward_edges)],
        left_degrees={key[mask]: degree for mask, degree in left_degrees.items()},
        right_degrees={key[hm]: degree for hm, degree in right_degrees.items()},
        cross_consistent=consistent and reverse_count == len(forward_edges),
        meta=meta,
    )


def build_le_graph(f: SimpleGraph, d: int, e, ell: int) -> SwitchingGraph:
    """Full auxiliary graph between the K_d(F) members with and without e."""
    cycles = _le_source(f, e, ell)
    e = canonical_pair(*e)
    return _bipartite_from_switches(
        "le", _enumerate(SimpleGraph(f.n, [e]), f, d), cycles,
        meta={"e": e, "ell": ell})


def build_lef_graph(f: SimpleGraph, d: int, e, f_edge, ell: int) -> SwitchingGraph:
    """Full auxiliary graph between the e-but-not-f and f-but-not-e classes."""
    cycles, can_switch = _lef_source(f, e, f_edge, ell)
    e, f_edge = canonical_pair(*e), canonical_pair(*f_edge)
    return _bipartite_from_switches(
        "lef", _enumerate(SimpleGraph(f.n, [e]), f.without_edge(*f_edge), d),
        cycles, meta={"e": e, "f": f_edge, "ell": ell}, can_switch=can_switch)


def build_six_cycle_graph(d: int, wprime, mode: str, left_members) -> SwitchingGraph:
    """Auxiliary graph out of a family of regular graphs sharing one statistic
    value, with edges the unit-decreasing six-cycle switchings."""
    cycles = _six_source(wprime, mode)
    left_members = list(left_members)
    if len({k.n for k in left_members}) > 1:
        raise ValueError("left members must share one vertex count")
    if not all(is_regular(k, d) for k in left_members):
        raise ValueError(f"left members must be {d}-regular")
    wmask = _wprime_mask(left_members[0], wprime) if left_members else 0
    values = {_six_statistic(k.adj, wmask, mode) for k in left_members}
    if len(values) > 1:
        raise ValueError(f"left class mixes statistic values {sorted(values)}")
    return _bipartite_from_switches(
        f"six-{mode}", left_members, cycles,
        meta={"wprime": sorted(set(wprime)), "mode": mode,
              "stat": values.pop() if values else None})


def build_ten_cycle_graph(f: SimpleGraph, d: int, e, f_edge) -> SwitchingGraph:
    """Full auxiliary graph between the extension classes of F+e and F+f."""
    cycles, can_switch = _ten_source(f, e, f_edge)
    e, f_edge = canonical_pair(*e), canonical_pair(*f_edge)
    return _bipartite_from_switches(
        "ten",
        _enumerate(f.with_edge(*e), complete_graph(f.n).without_edge(*f_edge), d),
        cycles, meta={"e": e, "f": f_edge}, can_switch=can_switch)
