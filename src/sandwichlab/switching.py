"""Alternating-path counting and the switching constructions built on it.

A path here is always simple and alternates between two edge sets; lengths
count edges.  Between-endpoint counts treat paths as undirected with a
designated start, so each path is counted exactly once.  A switching is an
alternating cycle: a closed vertex sequence whose pairs alternate between
edges of K and non-edges.  Applying it flips every pair, carrying one
regular graph to another, so it is carried as its flips: the XOR of its
pairs' bits in edge_mask's layout (graphs._pair_bits).  The result's edge
mask is the source's XOR the flips, so the auxiliary graphs key it without
building it.

Every walk reads a family of graphs at once through its member-set tables
(_family_sets, or _graph_sets for one graph): each pair carries the set of
members holding it, and a branch stops once no member is left on it.  Each
switching kind has one cycle source that checks the arguments not depending
on K and returns cycles(n, sets, reverse=False), which walks the cycles out
of a left family (with reverse=True, out of a right one) and yields
(flips, member set).  A neighbor list (whose length is the switching
degree) reads it over K alone; an auxiliary bipartite graph, which records
every switching between the two classes for an exact double count, reads
it once over each class.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import and_, itemgetter, or_

from .graphs import (
    SimpleGraph,
    canonical_pair,
    check_vertex,
    checked_pair,
    complete_graph,
    difference,
    graph_from_mask,
    is_regular,
    pair_list,
    vertex_mask,
    _bits,
    _pair_bits,
    _toggled_mask,
)
from .oracle import _enumerate


# -- core enumeration ---------------------------------------------------------

def _alt_paths(odd, even, x, length, y, avoid_mask, members):
    """Yield (path, member set) for the simple alternating paths of `length`
    edges from x, the vertex tuples in lexicographic order.

    odd and even are (rows, sets) of two edge sets over a family: w is in
    rows[v] iff vw is in the set for some member, and sets[v][w] is the set
    of members for which it is (entries off the rows are never read).  Edge
    j uses odd for odd j and even for even j.  A path's member set is
    `members` ANDed with the sets of its pairs, and a branch stops once it
    is empty.  Intermediate vertices avoid avoid_mask; the final vertex must
    be y when y is given, otherwise it is any vertex outside avoid_mask.
    The rows must be symmetric (w in rows[v] iff v in rows[w]).  With y
    given the walk is pruned from both ends: y is kept out of the
    intermediate vertices, and the vertex reached by edge j must lie in the
    backward reach of y, the intermediate vertices from which edges j+1,
    ..., length can lead to y (repeats allowed).  Level length-1 is y's own
    row of the last edge's set and each earlier level is the union of the
    next one's rows, so the masks drop only branches that cannot end at y
    in any member, and the paths come in the same order as from the
    unpruned walk.
    """
    odd_rows, even_rows = odd[0], even[0]
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

    def rec(v, visited, j, members):
        rows, sets = odd if j & 1 else even
        row_sets = sets[v]
        for w in _bits(rows[v] & ~visited & allowed[j]):
            inner = members & row_sets[w]
            if not inner:
                continue
            path.append(w)
            if j == length:
                yield tuple(path), inner
            else:
                yield from rec(w, visited | (1 << w), j + 1, inner)
            path.pop()

    yield from rec(x, 1 << x, 1, members)


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
    sets = _graph_sets(k)
    fk, kk = _fk_and_k(f, sets)
    first, second = (kk, fk) if start_in_k else (fk, kk)
    return (path for path, _ in
            _alt_paths(first, second, x, length, y, avoid_mask, sets[0]))


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


def _neighbors(k: SimpleGraph, cycles, reverse: bool = False) -> list:
    """The graphs K switched by each cycle of cycles(n, sets, reverse) read
    over K alone (_graph_sets), each made by flipping its pairs in K's
    rows."""
    pairs = pair_list(k.n)
    out = []
    for f, _ in cycles(k.n, _graph_sets(k), reverse):
        rows = list(k.adj)
        while f:
            low = f & -f
            u, v = pairs[low.bit_length() - 1]
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
            f ^= low
        out.append(SimpleGraph._from_rows(k.n, rows))
    return out


def _complement_rows(adj) -> list:
    """The rows of the complement of the graph with rows adj (row 0 stays 0)."""
    return [o & ~a for o, a in zip(_others(len(adj) - 1), adj)]


@lru_cache(maxsize=None)
def _others(n: int) -> tuple:
    """others[v]: the mask of every vertex of 1..n but v; others[0] is 0."""
    full = (1 << (n + 1)) - 2
    return (0, *(full & ~(1 << v) for v in range(1, n + 1)))


def _fk_and_k(f: SimpleGraph, sets) -> tuple:
    """(rows, sets) of F\\K and of K over a family's tables."""
    _, has, lacks, has_rows, lacks_rows = sets
    return ([a & b for a, b in zip(f.adj, lacks_rows)], lacks), (has_rows, has)


def _two_path_cycles(odd, even, ends, length: int, members: int, bit):
    """Yield (flips, member set) for the two-path cycles through the pairs
    ends = ((u1, u2), (v1, v2)) over the given (rows, sets) (_alt_paths).

    For each pairing (w1, w2) of v1, v2 the first halves (u1 to w1, avoiding
    u2 and w2) and the second halves (u2 to w2, avoiding u1 and w1) are each
    walked once, and every vertex-disjoint pair sharing a member is joined:
    the cycle runs out along the first half, across w1w2, back along the
    second and across u2u1, and its member set is the halves' common one.
    The first halves come in walk order and, for each, the second halves
    joined to it in walk order, as if the second half were walked avoiding
    the first.
    """
    (u1, u2), (v1, v2) = ends
    for w1, w2 in ((v1, v2), (v2, v1)):
        firsts = list(_alt_paths(odd, even, u1, length, w1,
                                 (1 << u2) | (1 << w2), members))
        if not firsts:
            continue
        seconds = [(vertex_mask(p2), p2[::-1], in2) for p2, in2 in
                   _alt_paths(odd, even, u2, length, w2,
                              (1 << u1) | (1 << w1), members)]
        for p1, in1 in firsts:
            mask1 = vertex_mask(p1)
            for mask2, p2, in2 in seconds:
                both = in1 & in2
                if both and not mask1 & mask2:
                    yield _toggled_mask(bit, 0, p1 + p2), both


def _two_path_source(halves, e, f_edge, length: int):
    """cycles of the switchings through e and f_edge made of two
    vertex-disjoint paths, one from each endpoint of e to an endpoint of
    f_edge (both pairings admitted); reverse swaps e and f_edge.  Each path
    has `length` edges alternating the (rows, sets) pairs (odd, even) =
    halves(sets), added to K and removed from it (_two_path_cycles)."""
    def cycles(n: int, sets, reverse: bool = False):
        ends = (f_edge, e) if reverse else (e, f_edge)
        return _two_path_cycles(*halves(sets), ends, length, sets[0], _pair_bits(n))
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
    bit = _pair_bits(f.n)

    def cycles(n: int, sets, reverse: bool = False):
        fk, kk = _fk_and_k(f, sets)
        odd, even = (kk, fk) if reverse else (fk, kk)
        for path, members in _alt_paths(odd, even, u, length, v, 0, sets[0]):
            yield _toggled_mask(bit, 0, path), members
    return cycles


def switch_neighbors_le(f: SimpleGraph, d: int, k: SimpleGraph, e, ell: int) -> list:
    """All K' in K_d(F) without e whose symmetric difference with K is one
    (2*ell+2)-cycle (necessarily through e).

    The cycle minus e is an (F\\K, K)-alternating path of length 2*ell+1
    between e's endpoints, so each such path gives one neighbor.
    """
    cycles = _le_source(f, e, ell)
    _check_member(k, d, host=f, has=("e", e))
    return _neighbors(k, cycles)


def switch_neighbors_le_absent(f: SimpleGraph, d: int, k: SimpleGraph, e,
                               ell: int) -> list:
    """Mirror of switch_neighbors_le from the side that lacks e: all K' with
    e in E(K') whose symmetric difference with K is one (2*ell+2)-cycle."""
    cycles = _le_source(f, e, ell)
    _check_member(k, d, host=f, lacks=("e", e))
    return _neighbors(k, cycles, reverse=True)


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
    return _two_path_source(lambda sets: _fk_and_k(f, sets), e, f_edge, 2 * ell + 2)


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
    return _neighbors(k, cycles)


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
    _check_six_mode(mode)
    return _six_statistic(k.adj, wmask, mode)


def _check_six_mode(mode: str):
    if mode not in ("two-in", "one-in"):
        raise ValueError(f"unknown mode {mode!r}")


def _family_sets(n: int, masks) -> tuple:
    """(full, has, lacks, has_rows, lacks_rows) of a family of distinct
    edge masks, member i being masks[i]: has[u][w] is the member set of the
    pair uw, the int whose bit i is set iff member i holds uw, lacks[u][w]
    its complement within full (every member), and w is in has_rows[u]
    (lacks_rows[u]) iff some member holds (lacks) uw.  Entries off the
    pairs of 1..n hold 0.

    The masks are transposed as text: each is written as a fixed-width bit
    string, the strings are joined from the last member to the first, and
    the column of pair p (one character per member, member 0 last) is read
    with one strided slice.
    """
    width = n * (n - 1) // 2
    full = (1 << len(masks)) - 1
    text = "".join([format(mask, f"0{width}b") for mask in reversed(masks)])
    columns = [int(text[width - 1 - p::width], 2) for p in range(width)]
    gaps = [full ^ column for column in columns]
    columns.append(0)
    gaps.append(0)
    getters = _pair_getters(n)
    return (full, [get(columns) for get in getters], [get(gaps) for get in getters],
            graph_from_mask(n, reduce(or_, masks)).adj,
            _complement_rows(graph_from_mask(n, reduce(and_, masks)).adj))


@lru_cache(maxsize=None)
def _pair_getters(n: int) -> tuple:
    """One itemgetter per vertex u of 0..n picking, for each w of 0..n, pair
    uw's entry from a list of pair_list(n) entries with a trailing 0 (the
    entry of every non-pair)."""
    index = [[-1] * (n + 1) for _ in range(n + 1)]
    for p, (u, w) in enumerate(pair_list(n)):
        index[u][w] = index[w][u] = p
    return tuple(itemgetter(*row) for row in index)


def _graph_sets(k: SimpleGraph) -> tuple:
    """_family_sets(k.n, [k.edge_mask()]), the family of K alone, read off
    K's rows without transposing a mask."""
    non = _complement_rows(k.adj)
    return (1, [_row_bits(row, k.n) for row in k.adj],
            [_row_bits(row, k.n) for row in non], k.adj, non)


@lru_cache(maxsize=1 << 16)
def _row_bits(row: int, n: int) -> tuple:
    """The bits 0..n of row, each as 0 or 1."""
    return tuple((row >> w) & 1 for w in range(n + 1))


def _six_cycles(n: int, wmask: int, mode: str, sets, reverse: bool):
    """Yield (flips, members) for the alternating 6-cycles (v1, ..., v6)
    realizing a unit move of the statistic in some member of a family, from
    its sets (_family_sets, or _graph_sets for one graph): members is the
    cycle's member set, bit i set iff the cycle is a switching of member i.
    The cycle is built up one pair per loop level, walked once for the
    whole family.

    v1v2, v3v4 and v5v6 are in `first` and v2v3, v4v5 and v6v1 in `second`.
    Forward cycles take `first` from K, so flipping them removes three
    K-edges, adds three non-edges and lowers the statistic by exactly 1;
    reverse=True takes `first` from the non-edges, the mirror cycles that
    raise it by exactly 1 (the same relation seen from the other class).
    Each level ANDs in the member set of its pair (`has`, or its
    complement `lacks` for a non-edge) and drops the branch once no member
    is left; the one-in W'-degree bounds on v2 (at least 2 forward, 1
    reverse) and v6 (at most 0 forward, 1 reverse) are member sets per
    vertex too.  Candidates come from the union rows: w is in first_rows[v]
    (second_rows[v]) iff vw is in `first` (`second`) for some member.

    Each cycle is met once.  In two-in mode v1 and v2 are its only W'
    vertices and v1v2 is a `first` edge, so the walk from (v2, v1) in the
    other direction finds the same cycle; only starts with v1 < v2 are taken.
    In one-in mode v1 is its only W' vertex and the walk must leave it along
    the one cycle edge at v1 that is in `first`, so the start is already
    unique.

    The walk is pruned from its closing end, over the union rows: for each
    v1 the vertices v6 may take (in second_rows[v1], outside W', and in
    one-in mode within the W'-degree bound for some member) give reach5,
    every vertex with a `first` row into one of them, and reach4, every
    vertex with a `second` row into reach5.  The rows are symmetric, so v5
    and v4 outside these masks could not close the cycle in any member; the
    masks drop only such branches.  A family of one visits exactly the
    nodes of its own walk, and the cycles come in the same order as from
    the unpruned walk.
    """
    bit = _pair_bits(n)
    full, has, lacks, has_rows, lacks_rows = sets
    first, second = (lacks, has) if reverse else (has, lacks)
    first_rows, second_rows = (lacks_rows, has_rows) if reverse else (has_rows, lacks_rows)
    outside = ((1 << (n + 1)) - 2) & ~wmask
    start = end = [full] * (n + 1)
    if mode == "two-in":
        ends = outside
    else:
        once = [0] * (n + 1)
        twice = [0] * (n + 1)
        for x in _bits(outside):
            hx = has[x]
            for w in _bits(wmask):
                twice[x] |= once[x] & hx[w]
                once[x] |= hx[w]
        start = once if reverse else twice
        end = [full ^ s for s in (twice if reverse else once)]
        starts = ends = 0
        for x in _bits(outside):
            if start[x]:
                starts |= 1 << x
            if end[x]:
                ends |= 1 << x
    close = [0] * (n + 1)
    for v1 in _bits(wmask):
        if mode == "two-in":
            v2s = _bits(first_rows[v1] & wmask & (-1 << (v1 + 1)))
        else:
            v2s = _bits(first_rows[v1] & starts)
        ends6 = second_rows[v1] & ends
        if not (v2s and ends6):
            continue
        reach5 = 0
        second1 = second[v1]
        for v6 in _bits(ends6):
            reach5 |= first_rows[v6]
            close[v6] = second1[v6] & end[v6]
        reach5 &= outside
        reach4 = 0
        for v5 in _bits(reach5):
            reach4 |= second_rows[v5]
        reach4 &= outside
        bit1 = bit[v1]
        first1 = first[v1]
        for v2 in v2s:
            in2 = first1[v2] & start[v2]
            if not in2:
                continue
            used12 = (1 << v1) | (1 << v2)
            bit2 = bit[v2]
            second2 = second[v2]
            flips2 = bit1[v2]
            for v3 in _bits(second_rows[v2] & outside & ~used12):
                in3 = in2 & second2[v3]
                if not in3:
                    continue
                used3 = used12 | (1 << v3)
                bit3 = bit[v3]
                first3 = first[v3]
                flips3 = flips2 ^ bit2[v3]
                for v4 in _bits(first_rows[v3] & reach4 & ~used3):
                    in4 = in3 & first3[v4]
                    if not in4:
                        continue
                    used4 = used3 | (1 << v4)
                    bit4 = bit[v4]
                    second4 = second[v4]
                    flips4 = flips3 ^ bit3[v4]
                    for v5 in _bits(second_rows[v4] & reach5 & ~used4):
                        in5 = in4 & second4[v5]
                        if not in5:
                            continue
                        bit5 = bit[v5]
                        first5 = first[v5]
                        flips5 = flips4 ^ bit4[v5]
                        for v6 in _bits(first_rows[v5] & ends6 & ~(used4 | (1 << v5))):
                            in6 = in5 & first5[v6] & close[v6]
                            if in6:
                                yield flips5 ^ bit5[v6] ^ bit1[v6], in6


def six_cycle_switches(k: SimpleGraph, wprime, mode: str,
                       reverse: bool = False) -> list:
    """Apply every qualifying six-cycle switching; returns the switched graphs."""
    _check_six_mode(mode)
    wmask = _wprime_mask(k, wprime)
    return _neighbors(
        k, lambda n, sets, reverse: _six_cycles(n, wmask, mode, sets, reverse), reverse)


# -- ten-cycle switchings ----------------------------------------------------------

def _ten_source(f: SimpleGraph, e, f_edge):
    """ten cycles, f the partial graph: two length-4 paths alternating
    (complement of K, K\\F) from e to f_edge; reverse swaps e and f_edge."""
    e, f_edge = checked_pair(f, e), checked_pair(f, f_edge)
    if f.has_edge(*e) or f.has_edge(*f_edge):
        raise ValueError("e and f must be absent from the partial graph")
    if len({*e, *f_edge}) != 4:
        raise ValueError("e and f must share no vertices")

    def halves(sets):
        _, has, lacks, has_rows, lacks_rows = sets
        return (lacks_rows, lacks), ([a & ~b for a, b in zip(has_rows, f.adj)], has)
    return _two_path_source(halves, e, f_edge, 4)


def ten_cycle_switches(f: SimpleGraph, d: int, k: SimpleGraph, e, f_edge) -> list:
    """All K' containing F+f but not e whose symmetric difference with K is a
    10-cycle carrying e and f on opposite sides.

    The cycle minus {e, f} is two vertex-disjoint length-4 paths alternating
    (complement of K, K\\F), one from each endpoint of e to an endpoint of f;
    both endpoint pairings are admitted.
    """
    cycles = _ten_source(f, e, f_edge)
    _check_member(k, d, partial=f, has=("e", e), lacks=("f", f_edge))
    return _neighbors(k, cycles)


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


def _member_indices(members: int) -> list:
    """The set bits of a member set, descending (read off its binary text)."""
    text = bin(members)
    top = len(text) - 1
    out = []
    i = text.find("1")
    while i >= 0:
        out.append(top - i)
        i = text.find("1", i + 1)
    return out


def _bipartite_from_switches(kind, left_graphs, cycles, meta):
    """Assemble a SwitchingGraph from a kind's cycles(n, sets, reverse).

    The left members, distinct and numbered in ascending edge-mask order,
    are walked once as a family (_family_sets), and then so are the right
    members with reverse=True.  Each leaf is (flips, member set): one cycle
    and the members it switches.  Members share one vertex count n, so each
    is keyed by its edge mask alone, and an output's mask is its source's
    mask XOR the flips.

    A left member's degree is the number of cycles walked out of it.  The
    forward edges go into one set, sorted once; the right members are their
    distinct outputs.  Reverse outputs are intersected with the left class,
    so the double count is over exactly the recorded edges.  The two routes
    agree when the distinct reverse edges are the forward ones: every
    reverse edge is a forward one, and there are as many.  An edge is the
    int left mask << width | right mask, which sorts as the (left key, right
    key) pair; the keys (n, mask) are made once per member at the end.
    """
    # each member's vertex count, keyed by its edge mask in the caller's order
    left = {g.edge_mask(): g.n for g in left_graphs}
    if not left:
        return SwitchingGraph(kind, [], [], [], {}, {}, True, meta)
    n = next(iter(left.values()))
    width = n * (n - 1) // 2
    low = (1 << width) - 1
    left_masks = sorted(left)
    left_degrees = dict.fromkeys(left, 0)
    forward_edges = set()
    for flips, members in cycles(n, _family_sets(n, left_masks)):
        for i in _member_indices(members):
            mask = left_masks[i]
            left_degrees[mask] += 1
            forward_edges.add(mask << width | mask ^ flips)
    right_masks = sorted({edge & low for edge in forward_edges})
    right_degrees = [0] * len(right_masks)
    reverse = set()
    if right_masks:
        for flips, members in cycles(n, _family_sets(n, right_masks), True):
            for j in _member_indices(members):
                hm = right_masks[j]
                bm = hm ^ flips
                if bm in left:
                    right_degrees[j] += 1
                    reverse.add(bm << width | hm)
    consistent = reverse == forward_edges
    del reverse  # freed before the edge keys are built
    key = {mask: (n, mask) for mask in (*left_masks, *right_masks)}
    return SwitchingGraph(
        kind=kind,
        left=[key[mask] for mask in left_masks],
        right=[key[hm] for hm in right_masks],
        edges=[(key[edge >> width], key[edge & low]) for edge in sorted(forward_edges)],
        left_degrees={key[mask]: degree for mask, degree in left_degrees.items()},
        right_degrees={key[hm]: degree for hm, degree in zip(right_masks, right_degrees)},
        cross_consistent=consistent,
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
    cycles = _lef_source(f, e, f_edge, ell)
    e, f_edge = canonical_pair(*e), canonical_pair(*f_edge)
    return _bipartite_from_switches(
        "lef", _enumerate(SimpleGraph(f.n, [e]), f.without_edge(*f_edge), d),
        cycles, meta={"e": e, "f": f_edge, "ell": ell})


def build_six_cycle_graph(d: int, wprime, mode: str, left_members) -> SwitchingGraph:
    """Auxiliary graph out of a family of regular graphs sharing one statistic
    value, with edges the unit-decreasing six-cycle switchings."""
    _check_six_mode(mode)
    left_members = list(left_members)
    if len({k.n for k in left_members}) > 1:
        raise ValueError("left members must share one vertex count")
    if not all(is_regular(k, d) for k in left_members):
        raise ValueError(f"left members must be {d}-regular")
    wmask = _wprime_mask(left_members[0], wprime) if left_members else 0
    values = {_six_statistic(k.adj, wmask, mode) for k in left_members}
    if len(values) > 1:
        raise ValueError(f"left class mixes statistic values {sorted(values)}")

    def cycles(n, sets, reverse=False):
        return _six_cycles(n, wmask, mode, sets, reverse)
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
        _enumerate(f.with_edge(*e), complete_graph(f.n).without_edge(*f_edge), d),
        cycles, meta={"e": e, "f": f_edge})
