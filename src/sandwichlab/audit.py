"""Checkers for the pseudorandom properties the coupling analysis quantifies over.

Every asymptotic "with high probability" property becomes a parameterized
finite check with explicit thresholds.  Checkers return a PropertyReport
carrying the worst signed margin and the witness achieving it, so a desk-scale
run stays informative even where the literal constants make the check vacuous
or unsatisfiable; in the vacuous case the report names the constraint that
emptied the search space instead of silently rescaling.  Each checker lists
its (margin, witness) instances, exhaustive then sampled, and _worst reduces them;
the expansion checks fold each block of instances to its worst first.

All logarithms are natural.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .graphs import (
    SimpleGraph,
    difference,
    edges_between,
    vertex_mask,
    _bits,
)

INF = float("inf")


@dataclass
class PropertyReport:
    """Quantified pass/fail record for one property over all checked instances."""

    property_id: str
    params: dict
    instances: int
    passed: bool
    worst_margin: float
    witness: object = None
    notes: str = ""

    def as_dict(self) -> dict:
        return {
            "property": self.property_id,
            "params": self.params,
            "instances": self.instances,
            "passed": self.passed,
            "worst_margin": self.worst_margin,
            "witness": _jsonable(self.witness),
            "notes": self.notes,
        }


def _jsonable(value):
    if isinstance(value, (frozenset, set, tuple)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _vacuous(property_id, params, notes) -> PropertyReport:
    return PropertyReport(property_id, params, 0, True, INF, None,
                          f"vacuous: {notes}")


def _worst(property_id, params, instances, empty) -> PropertyReport:
    """Count the (margin, witness) instances and keep the first least margin.

    Ties keep the earliest instance; with none the report is vacuous for empty.
    """
    return _worst_of_blocks(property_id, params,
                            ((margin, witness, 1) for margin, witness in instances),
                            empty)


def _worst_of_blocks(property_id, params, blocks, empty) -> PropertyReport:
    """_worst over (margin, witness, count) blocks, each standing for count
    instances whose least margin, first met at witness, is margin."""
    worst, witness, seen = INF, None, 0
    for margin, candidate, count in blocks:
        seen += count
        if margin < worst:
            worst, witness = margin, candidate
    if not seen:
        return _vacuous(property_id, params, empty)
    return PropertyReport(property_id, params, seen, worst >= 0, worst, witness)


def _no_samples(samples, rng) -> str:
    return "no rng" if rng is None else f"samples {samples}"


def _require_subgraph(k: SimpleGraph, f: SimpleGraph):
    if not k.is_subgraph_of(f):
        raise ValueError("K must be a subgraph of F")


# the note of a check whose bound divides by delta, at delta = 0
_ZERO_DELTA = "delta = 0 leaves the bound undefined"


def _require_floor(size_floor):
    """A set below one vertex would put 0 in the density ratio's denominator."""
    if size_floor < 1:
        raise ValueError(f"size floor must be at least 1, got {size_floor}")


# -- degree properties ---------------------------------------------------------

def _degree_band(property_id, params, g: SimpleGraph, lo, hi) -> PropertyReport:
    """Every degree of g must lie in [lo, hi]; the witness is a vertex."""
    degrees = ((g.degree(v), v) for v in g.vertices())
    return _worst(property_id, params,
                  ((min(deg - lo, hi - deg), v) for deg, v in degrees),
                  "no vertex")


def check_degree_band(f: SimpleGraph, d: int, delta: float, eta: float) -> PropertyReport:
    """Every degree of F must lie in [d + (1-eta)*delta, d + (1+eta)*delta]."""
    return _degree_band("degree-band", {"d": d, "delta": delta, "eta": eta}, f,
                        d + (1 - eta) * delta, d + (1 + eta) * delta)


def check_fk_degrees(f: SimpleGraph, k: SimpleGraph, delta: float,
                     band_constant: float) -> PropertyReport:
    """Every F\\K degree must lie within (1 +/- C'*sqrt(log n/delta))*delta."""
    _require_subgraph(k, f)
    if delta == 0:
        return _vacuous("fk-degrees", {"delta": delta, "band_constant": band_constant,
                                       "band": None}, _ZERO_DELTA)
    band = band_constant * math.sqrt(math.log(f.n) / delta)
    return _degree_band("fk-degrees",
                        {"delta": delta, "band_constant": band_constant,
                         "band": band},
                        difference(f, k), (1 - band) * delta, (1 + band) * delta)


def check_neighborhood_sums(f: SimpleGraph, k: SimpleGraph, delta: float,
                            d: int, tol: float = None) -> PropertyReport:
    """Two-step degree sums must track d_{F\\K}(v)*delta*d within 1 +/- tol.

    The sum runs over u in N_{F\\K}(v), then u' in N_K(u), of d_{F\\K}(u');
    tol defaults to 2/delta.
    """
    _require_subgraph(k, f)
    if delta == 0:
        return _vacuous("neighborhood-sums", {"delta": delta, "d": d, "tol": tol},
                        _ZERO_DELTA)
    t = 2.0 / delta if tol is None else tol
    fk = difference(f, k)
    fk_deg = [0] + [fk.degree(v) for v in f.vertices()]

    def instances():
        for v in f.vertices():
            total = sum(fk_deg[w] for u in _bits(fk.adj[v]) for w in _bits(k.adj[u]))
            center = fk_deg[v] * delta * d
            lo, hi = (1 - t) * center, (1 + t) * center
            yield min(total - lo, hi - total), v

    return _worst("neighborhood-sums", {"delta": delta, "d": d, "tol": t},
                  instances(), "no vertex")


# -- expansion properties --------------------------------------------------------

def _witnessed_sets(carrier_adj, n, witness_cap, min_ratio, size_cap,
                    pool_cap, samples, rng):
    """Yield blocks (U', |U|, sets, count) of the (U', U) pairs with U inside
    U' + carrier-neighborhood of U', in the order of the pairs.

    min_ratio is the |U| >= ratio*|U'| constraint; size_cap bounds |U|.  A
    pool with room for such a U gives, when small enough, one block per size
    holding its count sets, enumerated exhaustively; a larger one gives one
    block per sampled set, drawn from rng, or without rng or samples the
    block (U', None, None, 0).
    """
    vertices = range(1, n + 1)
    for size in range(1, witness_cap + 1):
        min_size = max(1, math.ceil(min_ratio * size))
        if min_size > size_cap:
            continue
        for uprime in combinations(vertices, size):
            pool_mask = vertex_mask(uprime)
            for v in uprime:
                pool_mask |= carrier_adj[v]
            pool = _bits(pool_mask)
            max_size = int(min(len(pool), size_cap))
            if max_size < min_size:
                continue
            if len(pool) <= pool_cap:
                for usize in range(min_size, max_size + 1):
                    yield (uprime, usize, combinations(pool, usize),
                           math.comb(len(pool), usize))
            elif rng is not None and samples > 0:
                for _ in range(samples):
                    usize = rng.randint(min_size, max_size)
                    yield uprime, usize, (tuple(rng.sample(pool, usize)),), 1
            else:
                yield uprime, None, None, 0


def _expansion_statistic(g: SimpleGraph, umask: int) -> int:
    """len(multi_covered_edges(g, U)) + edges_inside(g, U), U given as a mask."""
    adj = g.adj
    covered = inside_ends = 0
    for v in range(1, g.n + 1):
        c = (adj[v] & umask).bit_count()
        if (umask >> v) & 1:
            inside_ends += c
        elif c >= 2:
            covered += c
    return covered + inside_ends // 2


class _Statistics(dict):
    """U tuple -> _expansion_statistic of g, computed on first lookup."""

    def __init__(self, g: SimpleGraph):
        super().__init__()
        self.g = g

    def __missing__(self, u):
        stat = self[u] = _expansion_statistic(self.g, vertex_mask(u))
        return stat


def _check_expansion(property_id, f, k, counts_k, ratio, ratio_name, factor,
                     size_cap, params, witness_cap, pool_cap, samples, rng):
    """Shared body of the two expansion checks.

    Witnessed sets grow along one of F\\K and K, with |U| >= ratio*|U'|/4, and
    the statistic counts the other: K when counts_k, else F\\K.  The margin is
    factor*|U| minus that statistic, the multi-covered edges plus the edges
    inside U.  With c_v = |N(v) & U| (a popcount of v's row), an outside
    vertex y covers c_y multi-covered edges when c_y >= 2 and none otherwise,
    and the c_x over x in U count each inside edge from both ends, so the
    statistic is the sum of c_y over outside y with c_y >= 2 plus half the sum
    of c_x over x in U.  It depends on U alone, and many pairs share one U, so
    it is kept per U tuple within a call (a sampled U in another order is
    computed again).

    The pairs come in blocks of one U' and one |U|, where the margin falls as
    the statistic rises; max returns the first U of greatest statistic, so
    folding a block to that U keeps the least margin, its first witness and
    the instance count of the pair-by-pair fold.
    """
    _require_subgraph(k, f)
    if witness_cap < 1:
        raise ValueError(f"witness_cap must be at least 1, got {witness_cap}")
    if size_cap < 1:
        return _vacuous(property_id, params,
                        f"size cap {size_cap:.3g} < 1 admits no set at n={f.n}")
    fk = difference(f, k)
    carrier, counted = (fk, k) if counts_k else (k, fk)
    skipped = 0

    def blocks():
        nonlocal skipped
        table = _Statistics(counted)
        for uprime, size, sets, count in _witnessed_sets(
                carrier.adj, f.n, witness_cap, ratio / 4, size_cap, pool_cap,
                samples, rng):
            if not count:
                skipped += 1
                continue
            u = max(sets, key=table.__getitem__)
            yield factor * size - table[u], (uprime, u), count

    report = _worst_of_blocks(
        property_id, params, blocks(),
        f"no witnessed set meets |U| >= {ratio_name}*|U'|/4 = {ratio/4:.3g}")
    if skipped and not report.instances:
        return _vacuous(property_id, params,
                        f"every pool exceeds pool_cap {pool_cap} and "
                        f"{_no_samples(samples, rng)}")
    return report


def check_expansion_k(f: SimpleGraph, k: SimpleGraph, lam: float, d: int,
                      delta: float, log_divisor: bool, witness_cap: int = 3,
                      pool_cap: int = 14, size_cap: float = None,
                      samples: int = 50, rng=None) -> PropertyReport:
    """Multi-covered plus internal K-edges of witnessed sets must stay sparse.

    Sets U reachable as U' + F\\K-neighborhood with |U'| <= 4|U|/delta are
    checked against (lam/log n)*d*|U| (log_divisor) or lam*d*|U|, with the
    matching size regime cap; explicit caps may override the literal ones.
    """
    n = f.n
    logn = math.log(n)
    if size_cap is None:
        size_cap = lam * n / (1e6 * d * logn) if log_divisor else lam * n / (1e6 * d)
    factor = (lam / logn) * d if log_divisor else lam * d
    params = {"lam": lam, "d": d, "delta": delta, "log_divisor": log_divisor,
              "size_cap": size_cap}
    return _check_expansion("expansion-k", f, k, True, delta, "delta", factor,
                            size_cap, params, witness_cap, pool_cap, samples, rng)


def check_expansion_fk(f: SimpleGraph, k: SimpleGraph, lam: float, delta: float,
                       d: int, witness_cap: int = 3, pool_cap: int = 14,
                       size_cap: float = None, samples: int = 50,
                       rng=None) -> PropertyReport:
    """Mirror of check_expansion_k with the roles of K and F\\K swapped."""
    if delta == 0:
        _require_subgraph(k, f)
        return _vacuous("expansion-fk", {"lam": lam, "delta": delta, "d": d,
                                         "size_cap": size_cap}, _ZERO_DELTA)
    n = f.n
    logn = math.log(n)
    if size_cap is None:
        size_cap = lam * n / (100 * delta * logn)
    factor = (lam / logn) * delta
    params = {"lam": lam, "delta": delta, "d": d, "size_cap": size_cap}
    return _check_expansion("expansion-fk", f, k, False, d, "d", factor,
                            size_cap, params, witness_cap, pool_cap, samples, rng)


# -- local density and connection ---------------------------------------------------

def check_local_density(h: SimpleGraph, size_cap: float = None,
                        degree_cap: int = 10, count_cap: float = None,
                        enum_cap: int = 2, samples: int = 200,
                        rng=None) -> PropertyReport:
    """Few outside vertices may send degree_cap or more edges into any small set.

    For each U up to size_cap (default 100*log n), the number of outside
    vertices with at least degree_cap neighbors in U must not exceed count_cap
    (same default).  Sets up to enum_cap are enumerated, larger ones sampled.
    """
    n = h.n
    logn = math.log(n)
    if size_cap is None:
        size_cap = 100 * logn
    if count_cap is None:
        count_cap = 100 * logn
    params = {"size_cap": size_cap, "degree_cap": degree_cap,
              "count_cap": count_cap}
    max_size = int(min(size_cap, n))
    if max_size < 1:
        return _vacuous("local-density", params, f"size cap {size_cap:.3g} < 1")
    vertices = range(1, n + 1)

    def sets():
        for size in range(1, min(enum_cap, max_size) + 1):
            yield from combinations(vertices, size)
        if rng is not None and max_size > enum_cap:
            for _ in range(samples):
                size = rng.randint(enum_cap + 1, max_size)
                yield tuple(rng.sample(vertices, size))

    def offenders(u):
        umask = vertex_mask(u)
        return sum(1 for v in vertices
                   if not (umask >> v) & 1
                   and (h.adj[v] & umask).bit_count() >= degree_cap)

    return _worst("local-density", params,
                  ((count_cap - offenders(u), u) for u in sets()),
                  f"enum_cap {enum_cap} and {_no_samples(samples, rng)}: "
                  "no set checked")


def check_connection(f: SimpleGraph, k: SimpleGraph, lam: float,
                     size_floor: int = None, samples: int = 300,
                     exhaustive_n: int = 8, rng=None) -> PropertyReport:
    """Large disjoint sets must see at least (1-lam)*(delta/n)*|U||V| F\\K-edges.

    delta here is the average F\\K degree.  The margin is the absolute edge
    surplus; the witness records the worst (U, V) and its density ratio.
    """
    _require_subgraph(k, f)
    n = f.n
    fk = difference(f, k)
    delta = 2 * fk.edge_count() / n
    if size_floor is None:
        size_floor = max(1, math.ceil(lam * n / 1e8))
    _require_floor(size_floor)
    params = {"lam": lam, "size_floor": size_floor, "delta": delta}
    if delta == 0:
        return _vacuous("connection", params, "F\\K has no edges")
    vertices = range(1, n + 1)
    exhaustive = n <= exhaustive_n
    fits = 2 * size_floor <= n  # else no disjoint pair meets the floor

    def pairs():
        if exhaustive:
            # vertex v is digit v-1 (least significant first) of a base-3
            # counter: 1 puts it in U, 2 in V
            for digits in product(range(3), repeat=n):
                u = [v for v, side in zip(vertices, reversed(digits)) if side == 1]
                v_set = [v for v, side in zip(vertices, reversed(digits)) if side == 2]
                if len(u) >= size_floor and len(v_set) >= size_floor and u <= v_set:
                    yield u, v_set
        elif fits:
            sampler = rng or random.Random(0)
            for _ in range(samples):
                su = sampler.randint(size_floor, max(size_floor, n // 2))
                sv = sampler.randint(size_floor, max(size_floor, n - su))
                perm = sampler.sample(vertices, su + sv)
                yield perm[:su], perm[su:]

    def instance(u, v_set):
        e_uv = edges_between(fk, u, v_set)
        bound = (1 - lam) * (delta / n) * len(u) * len(v_set)
        ratio = e_uv * n / (delta * len(u) * len(v_set))
        return e_uv - bound, {"pair": (tuple(u), tuple(v_set)), "ratio": ratio}

    empty = ("no disjoint pair meets the floor" if exhaustive or not fits else
             f"n={n} is above exhaustive_n={exhaustive_n} and samples {samples}")
    return _worst("connection", params,
                  (instance(u, v_set) for u, v_set in pairs()), empty)


def check_uv_distribution(k: SimpleGraph, d: int, size_floor: int = None,
                          samples: int = 0, rng=None,
                          tolerance: float = None) -> PropertyReport:
    """Ordered edge counts between big sets must track (d/n)|U||V| within n^-0.01.

    At desk scale the default floor ceil(n^0.98) is within a vertex or two of
    n, so the exhaustive pass covers pairs of near-full sets; a lower explicit
    floor plus sampling gives the check substance on demand.
    """
    n = k.n
    if size_floor is None:
        size_floor = math.ceil(n ** 0.98)
    _require_floor(size_floor)
    if tolerance is None:
        tolerance = n ** -0.01
    params = {"d": d, "size_floor": size_floor, "tolerance": tolerance}
    if d == 0:
        return _vacuous("uv-distribution", params, "d = 0 has no edges to place")
    vertices = range(1, n + 1)
    sizes = range(size_floor, n + 1)
    subset_count = sum(math.comb(n, s) for s in sizes)

    def pairs():
        if subset_count ** 2 <= 4096:
            subsets = [c for s in sizes for c in combinations(vertices, s)]
            yield from product(subsets, repeat=2)
        if samples and rng is not None and subset_count:
            for _ in range(samples):
                su = rng.randint(size_floor, n)
                sv = rng.randint(size_floor, n)
                yield tuple(rng.sample(vertices, su)), tuple(rng.sample(vertices, sv))

    def instance(u, v_set):
        ratio = edges_between(k, u, v_set) * n / (d * len(u) * len(v_set))
        return tolerance - abs(ratio - 1), {"pair": (u, v_set), "ratio": ratio}

    empty = (f"{subset_count} sets of size >= {size_floor} give more than "
             f"4096 pairs and {_no_samples(samples, rng)}" if subset_count else
             f"floor {size_floor} exceeds n={n}")
    return _worst("uv-distribution", params,
                  (instance(u, v_set) for u, v_set in pairs()), empty)


# -- path-length threshold ----------------------------------------------------------

def ell0(delta, d, n: int) -> int:
    """Smallest integer l with (delta*d)^(l-1) >= n."""
    dd = Fraction(delta) * Fraction(d)
    if dd <= 1:
        raise ValueError("need delta*d > 1")
    level = 1
    power = Fraction(1)
    while power < n:
        level += 1
        power *= dd
    return level
