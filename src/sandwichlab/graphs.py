"""Labeled simple graphs on vertex set {1..n} and the elementary set/edge statistics.

Vertices are the integers 1..n, edges are unordered pairs stored canonically
as (u, v) with u < v.  Adjacency is kept as one bitmask row per vertex
(bit w of adj[v] set iff vw is an edge); Python integers make the rows
arbitrarily wide, so the same representation serves every n.  Graphs are
immutable after construction and safe to share across workers.
"""

from __future__ import annotations

from functools import lru_cache


class GraphFormatError(ValueError):
    """Raised for malformed graph literals or invalid edge descriptions."""


@lru_cache(maxsize=None)
def pair_list(n: int) -> tuple:
    """All unordered vertex pairs of {1..n} in lexicographic order."""
    return tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))


def canonical_pair(u: int, v: int) -> tuple:
    if u == v:
        raise GraphFormatError(f"self-loop {u}-{v}")
    return (u, v) if u < v else (v, u)


class SimpleGraph:
    """Immutable labeled simple graph on {1..n}."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges=()):
        if n < 1:
            raise GraphFormatError(f"vertex count must be positive, got {n}")
        rows = [0] * (n + 1)
        for u, v in edges:
            u, v = canonical_pair(u, v)
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(f"edge {u}-{v} outside 1..{n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.adj = tuple(rows)

    @classmethod
    def _from_rows(cls, n: int, rows) -> "SimpleGraph":
        g = object.__new__(cls)
        g.n = n
        g.adj = tuple(rows)
        return g

    # -- basic accessors ---------------------------------------------------

    def vertices(self):
        return range(1, self.n + 1)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> frozenset:
        return frozenset(_bits(self.adj[v]))

    def edges(self) -> list:
        out = []
        for u in range(1, self.n + 1):
            row = self.adj[u] >> (u + 1)
            w = u + 1
            while row:
                if row & 1:
                    out.append((u, w))
                row >>= 1
                w += 1
        return out

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def edge_mask(self) -> int:
        """Edge set packed as a bitmask over pair_list(self.n).

        The pairs (u, u+1), ..., (u, n) are consecutive in pair_list, so
        row u shifted down to its bit u+1 lands at their offset as a block.
        """
        n, adj = self.n, self.adj
        mask = 0
        offset = 0
        for u in range(1, n):
            mask |= (adj[u] >> (u + 1)) << offset
            offset += n - u
        return mask

    # -- derived graphs ----------------------------------------------------

    def with_edge(self, u: int, v: int) -> "SimpleGraph":
        u, v = canonical_pair(u, v)
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return SimpleGraph._from_rows(self.n, rows)

    def without_edge(self, u: int, v: int) -> "SimpleGraph":
        u, v = canonical_pair(u, v)
        rows = list(self.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return SimpleGraph._from_rows(self.n, rows)

    def is_subgraph_of(self, other: "SimpleGraph") -> bool:
        if self.n != other.n:
            return False
        return all(self.adj[v] & ~other.adj[v] == 0 for v in range(1, self.n + 1))

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, SimpleGraph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"SimpleGraph({format_graph_literal(self)!r})"


@lru_cache(maxsize=1 << 16)
def _bits(mask: int) -> tuple:
    """The set bits of mask in ascending order, as a cached tuple.

    The walks call this on the same few row masks over and over, so the
    tuples are kept, at most 2**16 of them (least recently used dropped).
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def vertex_mask(vertices) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def check_vertex(g: SimpleGraph, v: int):
    """Raise ValueError unless v is a vertex of g."""
    if not 1 <= v <= g.n:
        raise ValueError(f"vertex {v} outside 1..{g.n}")


def checked_pair(g: SimpleGraph, e) -> tuple:
    """canonical_pair(*e) once both endpoints are known to lie in 1..n."""
    for v in e:
        check_vertex(g, v)
    return canonical_pair(*e)


# -- constructors ------------------------------------------------------------

def empty_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n)


def complete_graph(n: int) -> SimpleGraph:
    full = (1 << (n + 1)) - 2  # bits 1..n
    return SimpleGraph._from_rows(n, [0] + [full & ~(1 << v) for v in range(1, n + 1)])


def cycle_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(v, v % n + 1) for v in range(1, n + 1)])


def graph_from_mask(n: int, mask: int) -> SimpleGraph:
    """The graph whose edge_mask() is mask, built from its rows."""
    pairs = pair_list(n)
    rows = [0] * (n + 1)
    while mask:
        low = mask & -mask
        u, v = pairs[low.bit_length() - 1]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        mask ^= low
    return SimpleGraph._from_rows(n, rows)


def gnp_graph(n: int, p: float, rng) -> SimpleGraph:
    return SimpleGraph(n, (e for e in pair_list(n) if rng.random() < p))


def random_regular_graph(n: int, d: int, rng) -> SimpleGraph:
    """Uniform d-regular graph on {1..n} via the pairing model with restarts.

    Conditioning the pairing model on producing a simple graph leaves the
    uniform distribution on d-regular simple graphs, so full restarts keep
    exact uniformity.
    """
    if (n * d) % 2 != 0:
        raise ValueError("dn must be even")
    if not 0 <= d <= n - 1:
        raise ValueError("need 0 <= d <= n-1")
    while True:
        stubs = [v for v in range(1, n + 1) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            e = canonical_pair(u, v)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if ok:
            return SimpleGraph(n, edges)


# -- elementary operations ----------------------------------------------------

def complement(g: SimpleGraph) -> SimpleGraph:
    """Edge complement on the same vertex set (an involution)."""
    n = g.n
    full = (1 << (n + 1)) - 2
    rows = [0] + [(full & ~g.adj[v]) & ~(1 << v) for v in range(1, n + 1)]
    return SimpleGraph._from_rows(n, rows)


def difference(f: SimpleGraph, k: SimpleGraph) -> SimpleGraph:
    """Graph with edge set E(f) \\ E(k) on the shared vertex set."""
    if f.n != k.n:
        raise ValueError(f"vertex count mismatch: {f.n} != {k.n}")
    return SimpleGraph._from_rows(f.n, [a & ~b for a, b in zip(f.adj, k.adj)])


def intersection(f: SimpleGraph, k: SimpleGraph) -> SimpleGraph:
    if f.n != k.n:
        raise ValueError(f"vertex count mismatch: {f.n} != {k.n}")
    return SimpleGraph._from_rows(f.n, [f.adj[v] & k.adj[v] for v in range(f.n + 1)])


def union(f: SimpleGraph, k: SimpleGraph) -> SimpleGraph:
    if f.n != k.n:
        raise ValueError(f"vertex count mismatch: {f.n} != {k.n}")
    return SimpleGraph._from_rows(f.n, [f.adj[v] | k.adj[v] for v in range(f.n + 1)])


def is_regular(g: SimpleGraph, d: int) -> bool:
    return all(row.bit_count() == d for row in g.adj[1:])


def neighborhood(g: SimpleGraph, vertices) -> frozenset:
    """Vertices outside the given set with at least one edge into it."""
    umask = vertex_mask(vertices)
    out = 0
    for v in _bits(umask):
        out |= g.adj[v]
    return frozenset(_bits(out & ~umask))


def canonical_key(g: SimpleGraph):
    """Opaque key equal iff the labeled edge sets are identical."""
    return (g.n, g.edge_mask())


@lru_cache(maxsize=None)
def _pair_bits(n: int) -> tuple:
    """bit[u][w] == bit[w][u]: the pair uw's bit in edge_mask's layout,
    which numbers the pairs in pair_list order."""
    bit = [[0] * (n + 1) for _ in range(n + 1)]
    for i, (u, w) in enumerate(pair_list(n)):
        bit[u][w] = bit[w][u] = 1 << i
    return tuple(map(tuple, bit))


def _toggled_mask(bit, mask, cycle) -> int:
    """The edge mask of g with each pair of the closed vertex sequence
    flipped between edge and non-edge (cycle[i]cycle[i+1], and
    cycle[-1]cycle[0] closing it), from mask == g.edge_mask() and
    bit == _pair_bits(g.n): each pair of the cycle XORs its bit."""
    prev = cycle[-1]
    for v in cycle:
        mask ^= bit[prev][v]
        prev = v
    return mask


def _twins(adj, u: int, v: int) -> bool:
    """N(u) - v == N(v) - u: the transposition (u v) is an automorphism."""
    return not (adj[u] ^ adj[v]) & ~((1 << u) | (1 << v))


def _refine(adj, cells: list, splitters: list, n: int) -> list:
    """Equitable refinement of an ordered partition (vertex bitmasks).

    Splits every cell by its vertices' neighbor counts in each splitter,
    ordering the pieces by count in place of the cell; a cell that splits
    joins the splitters as its pieces.  When the partition was equitable
    before some cells were split, those new cells are the only splitters
    needed.  The result depends on the graph and the inputs only, never on
    the vertex labels.
    """
    while splitters and len(cells) < n:
        splitter = splitters.pop()
        out = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            groups = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                k = (adj[low.bit_length() - 1] & splitter).bit_count()
                groups[k] = groups.get(k, 0) | low
            if len(groups) == 1:
                out.append(cell)
                continue
            pieces = [groups[k] for k in sorted(groups)]
            out.extend(pieces)
            if cell in splitters:
                splitters.remove(cell)
            splitters.extend(pieces)
        cells = out
    return cells


def _split_twin_class(adj, cell: int) -> list:
    """Singletons of the cell if its vertices are pairwise twins, else [cell].

    Being twins is an equivalence relation, so comparing with one member
    suffices.
    """
    u = cell.bit_length() - 1
    if all(_twins(adj, u, v) for v in _bits(cell)):
        return [1 << v for v in _bits(cell)]
    return [cell]


class _LabelingSearch:
    """Individualization-refinement search tree of one graph.

    A node is an equitable ordered partition.  Cells whose vertices are all
    twins of each other are split into singletons at once: every order of
    them gives an isomorphic subtree.  The node then branches on each vertex
    of its first non-singleton cell, skipping a vertex that a known
    automorphism fixing the node's individualized vertices maps to an
    explored one (twin transpositions, and automorphisms found as two leaves
    with equal certificates).  Such pruning removes only subtrees whose leaf
    certificates some explored subtree also holds, so the minimum over the
    visited leaves is the minimum over the whole tree, which is invariant.
    """

    def __init__(self, g: SimpleGraph):
        self.n = g.n
        self.adj = g.adj
        self.first = None  # (certificate, order, path) of the first leaf
        self.best = None  # the same for the least certificate so far
        self.autos = []  # automorphisms found, as tuples perm[v]

    def node(self, cells: list, path: list) -> int:
        """Explore the subtree; return the depth at which the search resumes."""
        adj = self.adj
        target = None
        if len(cells) < self.n:
            split = []
            for cell in cells:
                if cell & (cell - 1):
                    pieces = _split_twin_class(adj, cell)
                    if target is None and len(pieces) == 1:
                        target = len(split)
                    split.extend(pieces)
                else:
                    split.append(cell)
            cells = split
        if target is None:
            return self.leaf(cells, path)
        depth = len(path)
        cell = cells[target]
        explored = []
        for v in _bits(cell):
            if explored and self.pruned(v, explored, path, cell):
                continue
            child = cells[:target] + [1 << v, cell & ~(1 << v)] + cells[target + 1:]
            resume = self.node(_refine(adj, child, [1 << v], self.n), path + [v])
            explored.append(v)
            if resume < depth:
                return resume
        return depth - 1

    def pruned(self, v: int, explored: list, path: list, cell: int) -> bool:
        """Is v in the orbit of an explored vertex under the known automorphisms
        that fix the path?"""
        adj = self.adj
        if any(_twins(adj, u, v) for u in explored):
            return True
        gens = [p for p in self.autos if all(p[w] == w for w in path)]
        if not gens:
            return False
        orbit = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            images = [p[x] for p in gens]
            images.extend(y for y in _bits(cell) if _twins(adj, x, y))
            for y in images:
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        return any(u in orbit for u in explored)

    def leaf(self, cells: list, path: list) -> int:
        """Record a discrete partition's certificate; return the resume depth."""
        adj = self.adj
        order = [cell.bit_length() - 1 for cell in cells]
        bit = [0] * (self.n + 1)
        for i, v in enumerate(order, 1):
            bit[v] = 1 << i
        rows = [0]
        for v in order:
            row = 0
            rest = adj[v]
            while rest:
                low = rest & -rest
                rest ^= low
                row |= bit[low.bit_length() - 1]
            rows.append(row)
        cert = tuple(rows)
        leaf = (cert, order, path)
        if self.first is None:
            self.first = self.best = leaf
            return len(path) - 1
        for known in (self.first, self.best):
            if cert == known[0]:
                # the two leaves differ by an automorphism, which maps the
                # known leaf's subtree at their divergence onto this one's
                self.autos.append(_leaf_map(known[1], order, self.n))
                return _common_prefix(path, known[2])
        if cert < self.best[0]:
            self.best = leaf
        return len(path) - 1


def _leaf_map(source, image, n: int) -> tuple:
    perm = [0] * (n + 1)
    for a, b in zip(source, image):
        perm[a] = b
    return tuple(perm)


def _common_prefix(a: list, b: list) -> int:
    k = 0
    while k < len(a) and k < len(b) and a[k] == b[k]:
        k += 1
    return k


def canonical_labeling(g: SimpleGraph):
    """(certificate, relabel): an isomorphism-complete certificate of g.

    Two graphs on the same vertex count have equal certificates iff they are
    isomorphic.  relabel[v] is v's canonical label in 1..n (relabel[0] is
    0), and the certificate is the adjacency-row tuple of g relabeled by it,
    in the layout of SimpleGraph.adj.  Individualization-refinement (McKay &
    Piperno, "Practical graph isomorphism II", 2014): colour refinement from
    the degree partition, branching on the first non-singleton cell, and the
    least relabeled row tuple over the leaves.
    """
    n, adj = g.n, g.adj
    by_degree = {}
    for v in range(1, n + 1):
        k = adj[v].bit_count()
        by_degree[k] = by_degree.get(k, 0) | (1 << v)
    cells = [by_degree[k] for k in sorted(by_degree)]
    search = _LabelingSearch(g)
    search.node(_refine(adj, cells, cells[:], n), [])
    cert, order, _ = search.best
    relabel = [0] * (n + 1)
    for i, v in enumerate(order, 1):
        relabel[v] = i
    return cert, tuple(relabel)


def edges_between(g: SimpleGraph, u_set, v_set) -> int:
    """Ordered-pair edge count |{(u,v): u in U, v in V, uv an edge}|.

    U and V may overlap; an edge inside the overlap is counted twice.
    """
    vmask = vertex_mask(v_set)
    return sum((g.adj[u] & vmask).bit_count() for u in set(u_set))


def edges_inside(g: SimpleGraph, u_set) -> int:
    """Number of edges with both endpoints in the set (each counted once)."""
    return edges_between(g, u_set, u_set) // 2


def multi_covered_edges(g: SimpleGraph, u_set) -> set:
    """Edges xy with x inside the set and y outside having >= 2 neighbors in it.

    Returns the set of canonical pairs; it is the obstruction to perfect
    neighborhood expansion of the set.
    """
    umask = vertex_mask(u_set)
    members = list(_bits(umask))
    out = set()
    for x in members:
        for y in _bits(g.adj[x] & ~umask):
            if (g.adj[y] & umask).bit_count() >= 2:
                out.add(canonical_pair(x, y))
    return out


# -- literals ------------------------------------------------------------------

def format_graph_literal(g: SimpleGraph) -> str:
    edges = ",".join(f"{u}-{v}" for u, v in g.edges())
    return f"n={g.n};edges={edges}"


def parse_graph_literal(text: str) -> SimpleGraph:
    """Parse "n=5;edges=1-2,2-3,3-4,4-5,5-1" (ASCII, 1-indexed, u<v)."""
    try:
        n_part, e_part = text.strip().split(";")
        if not n_part.startswith("n=") or not e_part.startswith("edges="):
            raise ValueError
        n = int(n_part[2:])
        body = e_part[len("edges="):]
    except ValueError as exc:
        raise GraphFormatError(f"bad graph literal: {text!r}") from exc
    edges = []
    if body:
        for token in body.split(","):
            try:
                u, v = token.split("-")
                edges.append((int(u), int(v)))
            except ValueError as exc:
                raise GraphFormatError(f"bad edge token {token!r}") from exc
    return SimpleGraph(n, edges)
