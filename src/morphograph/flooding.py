"""Flooding graphs: construction, validation, pairs and shared minima.

A flooding graph carries both node and edge weights tied together by the
two identities "every edge is the max of its endpoints" and "every node
is the min of its adjacent edges".  On such a graph the node-weight and
edge-weight reliefs have the same regional minima, and each node outside
the minima owns at least one adjacent edge of equal weight (a flooding
pair), the atomic step of every descent used later.  The minima cached
on a frozen graph certify that it is a flooding graph.  The constructors
build both identities, so what they build is certified by construction;
``minima_of_flooding`` validates only a graph that comes with both weights.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence, Union

from .adjunction import dilate_nodes_to_edges, erode_edges_to_nodes
from .errors import InvalidFloodingGraph, MissingWeights, ZeroNonMinimum
from .graphs import (
    Labeling,
    UNSET,
    WeightedGraph,
    _node_walk,
    expand_isolated_minima,
    minima_span,
    regional_minima,
)


@dataclass(frozen=True)
class FloodingReport:
    ok: bool
    bad_edges: tuple[int, ...]  # edges where weight != max of endpoints
    bad_nodes: tuple[int, ...]  # nodes where weight != min of adjacent edges


def validate_flooding(g: WeightedGraph) -> FloodingReport:
    """Check both flooding identities; list offending carriers."""
    if not (g.has_node_weights and g.has_edge_weights):
        return FloodingReport(False, (), ())
    want_e = dilate_nodes_to_edges(g, g.node_weights)
    want_n = erode_edges_to_nodes(g, g.edge_weights)
    if want_e == g.edge_weights and want_n == g.node_weights:
        return FloodingReport(True, (), ())
    bad_e = tuple(i for i, w in enumerate(g.edge_weights) if w != want_e[i])
    bad_n = tuple(i for i, w in enumerate(g.node_weights) if w != want_n[i])
    return FloodingReport(not bad_e and not bad_n, bad_e, bad_n)


def flooding_from_edges(g: WeightedGraph) -> WeightedGraph:
    """Derive a flooding graph from an edge-weighted graph.

    The nodes take the erosion ``lo`` of the edge weights, and only the
    edges invariant under the edge opening (``ew[e]`` equal to the max of
    its ends' ``lo``) stay: each node's lowest adjacent edges, so ``lo`` is
    also the erosion over the kept edges, and both identities hold by
    construction: certified.  A certified ``g`` comes back as it is.
    """
    return _from_edges(g)[0]


def _from_edges(g: WeightedGraph) -> tuple[WeightedGraph, Sequence[int]]:
    """``flooding_from_edges(g)`` and, per edge of it, its id in ``g``: a
    certified ``g``, whose erosion and opening change nothing, unchanged."""
    if "_minima" in vars(g):
        return g, range(len(g.edges))
    ew = g.require_edge_weights()
    lo = erode_edges_to_nodes(g, ew)
    kept = [eid for eid, (w, top) in enumerate(zip(ew, dilate_nodes_to_edges(g, lo))) if w == top]
    return _certify(g.partial(kept).with_weights(node_weights=lo)), kept


def flooding_from_nodes(g: WeightedGraph) -> WeightedGraph:
    """Derive a flooding graph from a node-weighted graph.

    Isolated regional minima first get a dummy twin, then every edge takes
    the max of its endpoints.  Certified by construction: every node has a
    neighbor no higher than itself, or is a single-node minimum whose twin
    edge weighs what it weighs, so it is the min of its adjacent edges.
    """
    g.require_node_weights()
    gx = expand_isolated_minima(g)
    return _certify(gx.with_weights(edge_weights=dilate_nodes_to_edges(gx, gx.node_weights)))


def as_flooding(g: WeightedGraph) -> WeightedGraph:
    """The flooding graph of any weighted graph.

    A graph carrying both weights must already be one; otherwise it is
    derived from whichever carrier is weighted.
    """
    if g.has_node_weights and g.has_edge_weights:
        minima_of_flooding(g)
        return g
    if g.has_edge_weights:
        return flooding_from_edges(g)
    if g.has_node_weights:
        return flooding_from_nodes(g)
    raise MissingWeights("input graph carries no weights")


# ---------------------------------------------------------------------------
# shared minima
# ---------------------------------------------------------------------------


def minima_of_flooding(g: WeightedGraph) -> Labeling:
    """Labeling of the regional minima, identical on both carriers.

    Raises InvalidFloodingGraph unless ``g`` is certified (``_certify``)
    or passes ``validate_flooding``; the labeling is cached on ``g`` as
    its certificate.  Computed on the node carrier only: on a flooding
    graph the node-weight minima are the node spans of the edge-weight
    minima plus the isolated nodes, so the edge carrier adds nothing.
    Labels run from 1 in order of each minimum's smallest node id.
    """
    if "_minima" not in vars(g):  # not certified: validate, then label
        g.require_node_weights(), g.require_edge_weights()
        report = validate_flooding(g)
        if not report.ok:
            raise InvalidFloodingGraph(f"bad edges {report.bad_edges[:8]}, "
                                       f"bad nodes {report.bad_nodes[:8]}")
    elif vars(g)["_minima"] is not None:
        return vars(g)["_minima"]
    zone_of, lowest = _node_walk(g)  # the k-th lowest zone is minimum k
    label = [UNSET] + [int(k) if low else UNSET for k, low in zip(accumulate(lowest), lowest)]
    _certify(g, labeling := Labeling(tuple([label[z] for z in zone_of]), "nodes"))
    return labeling


def _certify(g: WeightedGraph, minima: Optional[Labeling] = None) -> WeightedGraph:
    """Mark ``g`` a flooding graph: its ``_minima`` entry is absent until
    then, None while the minima are not labeled yet, then their labeling."""
    vars(g)["_minima"] = minima
    return g


def minima_sets(labeling: Labeling) -> list[frozenset[int]]:
    """Minima as node sets, ordered by label."""
    return [ids for _, ids in sorted(labeling.label_sets().items())]


def zero_minima(g: WeightedGraph) -> WeightedGraph:
    """Re-weight every regional minimum (nodes and internal edges) to 0.

    Keeps "edge = max of endpoints" valid everywhere; "node = min of
    adjacent edges" may fail afterwards on minima that are isolated
    nodes, which is harmless for every descent-based computation.
    Raises ZeroNonMinimum if a node outside the minima already weighs 0.
    The minima's nodes are the node spans of the edge-weight minima plus
    the isolated nodes, so a graph that is not a flooding graph (or a
    zeroed one, whose node identity may fail) needs no certificate.
    """
    g.require_node_weights()
    # the nodes of the edge-weight minima, then the isolated nodes
    span = set().union(*minima_span(regional_minima(g, "edges"), g))
    linked = {n for e in g.edges for n in e}  # the nodes of degree > 0
    in_min = [i in span or i not in linked for i in range(g.num_nodes)]
    ew = g.require_edge_weights()
    return g.with_weights(
        node_weights=_zeroed_nodes(g, in_min),
        edge_weights=[0 if in_min[u] and in_min[v] else w for (u, v), w in zip(g.edges, ew)],
    )


def _zeroed_nodes(g: WeightedGraph, in_min: list) -> list[int]:
    """Node weights of ``g`` with the nodes of the mask ``in_min`` at 0, the
    node weights ``zero_minima`` gives."""
    nw = g.require_node_weights()
    for i, (w, m) in enumerate(zip(nw, in_min)):
        if w == 0 and not m:
            raise ZeroNonMinimum(f"node {i} weighs 0 outside the minima")
    return [0 if m else w for w, m in zip(nw, in_min)]


# ---------------------------------------------------------------------------
# flooding pairs
# ---------------------------------------------------------------------------


def parse_tie(tie: Union[str, random.Random, None]) -> Optional[random.Random]:
    """Tie policy: "min-label" -> None, "seed:<u64>" -> seeded generator."""
    if tie is None or isinstance(tie, random.Random):
        return tie
    if tie == "min-label":
        return None
    if tie.startswith("seed:"):
        return random.Random(int(tie[5:]))
    raise ValueError(f"unknown tie policy {tie!r}")


def _flooding_pairs(g: WeightedGraph) -> tuple[list, list, list, array]:
    """Per node whether it is in a minimum (this mask is derived here
    alone), then flat parallel lists (tails, heads, edge ids): node
    ``tails[p]`` outside the minima floods edge ``eids[p]`` down to
    ``heads[p]``.  The two pairs of an edge come one after the other, and
    the ids are a machine-int array, so no int object is kept per pair."""
    in_min = [v != UNSET for v in minima_of_flooding(g).values]
    free = [None if m else w for w, m in zip(g.node_weights, in_min)]
    tails, heads, eids = [], [], array("i")
    tail, head, edge = tails.append, heads.append, eids.append
    for eid, ((u, v), w) in enumerate(zip(g.edges, g.edge_weights)):
        if w == free[u]:
            tail(u)
            head(v)
            edge(eid)
        if w == free[v]:
            tail(v)
            head(u)
            edge(eid)
    return in_min, tails, heads, eids


def _reach(start: int, rows: dict, edges: tuple, seen: bytearray, tree: list) -> list[int]:
    """The nodes reached from ``start`` breadth first over ``rows`` (per node,
    edge ids in order), marked ``seen``; the edge first reaching each joins ``tree``."""
    seen[start], queue = 1, [start]
    for i in queue:
        for eid in rows.get(i, ()):
            u, v = edges[eid]
            if not seen[j := u + v - i]:
                seen[j] = 1
                tree.append(eid)
                queue.append(j)
    return queue


def _pair_nodes(g: WeightedGraph, pairs: tuple, kept: Optional[tuple],
                rng: Optional[random.Random]) -> list[int]:
    """Per node, the edge id of its pair (-1 in the minima), as
    ``assign_pairs`` pairs the partial graph of ``g`` that keeps the minima
    and the flooding pairs ``pairs`` (``_flooding_pairs``'), or those the
    ranks ``kept`` of ``steepness._minimal_pairs`` keep, unbuilt: an edge
    weighs its higher end, so a node's edges down are its kept pairs with
    a lower head, and the only rows built, its plateau edges, those with
    an equal head either way.  Under ``rng`` each tail lists its lower
    pairs, and an exit draws its pair from that list in head order.
    Plateaus share no row, so without ``rng`` one layered pass from every
    exit pairs them all; under ``rng`` they go one by one, by least node."""
    nw, edges, n = g.node_weights, g.edges, g.num_nodes
    rank, lo = kept or (None, None)
    pair, least = [-1] * n, [n] * n  # least: lowest head
    lower, rows, last = {}, {}, -1  # lower: under rng, each tail's lower pairs
    for i, j, eid in zip(*pairs[1:]):
        if rank and rank[j] != lo[i]:  # a pair depth-k pruning drops
            continue
        if nw[j] < nw[i]:
            if j < least[i]:
                least[i], pair[i] = j, eid
            if rng:
                lower.setdefault(i, []).append(eid)
        elif eid != last:  # once per edge, though both its pairs are kept
            last = eid
            rows.setdefault(i, []).append(eid)
            rows.setdefault(j, []).append(eid)
    seen = bytearray(n)  # under rng, a lone exit is a plateau of one and draws too
    plateaus = (_reach(s, rows, edges, seen, []) for s in range(n) if not seen[s])
    for plateau in plateaus if rng else (rows,):
        frontier = [x for x in sorted(plateau) if least[x] < n]
        for x in frontier if rng else ():  # uniform over x's lower pairs, in head order
            pair[x] = rng.choice(sorted(lower[x], key=lambda e: sum(edges[e])))
        while frontier:  # each layer pairs by its least edge to the last
            reachable: dict[int, list[int]] = {}
            for x in frontier:
                for e in rows.get(x, ()):
                    u, v = edges[e]
                    if pair[j := u + v - x] < 0:
                        reachable.setdefault(j, []).append(e)
            frontier = sorted(reachable)
            for j in frontier:
                pair[j] = rng.choice(sorted(reachable[j])) if rng else min(reachable[j])
    return pair


def assign_pairs(g: WeightedGraph, rng: Optional[random.Random] = None) -> dict[int, int]:
    """One-to-one map node -> adjacent equal-weight edge, outside the minima.

    The plateaus are the flat zones that are not regional minima.  Each
    is resolved by a breadth-first spanning tree grown from its exit
    nodes (nodes with a strictly lower neighbor): each plateau node pairs
    with its tree-parent edge, each exit with an edge to a strictly lower
    neighbor.  Choices default to the smallest node id; with ``rng`` they
    are drawn uniformly instead, plateau by plateau in order of their
    smallest node.  ``g`` must be a flooding graph.
    """
    pair = _pair_nodes(g, _flooding_pairs(g), None, rng)
    return {i: eid for i, eid in enumerate(pair) if eid >= 0}


def flooding_pairs(g: WeightedGraph) -> list[tuple[int, int]]:
    """Deterministic (node, edge_id) pairing for every node outside minima."""
    return list(assign_pairs(g).items())
