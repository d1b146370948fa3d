"""Pruning a flooding graph down to its steepest descent tracks.

Descents are chains of flooding pairs with never-increasing weights.
``prune_to_steepness`` keeps, per node outside the minima, exactly the
adjacent edges that start a depth-k track of minimal lexicographic
weight (tracks may stop early when they reach a minimum, and a shorter
track beats every extension of itself).  ``local_prune`` reaches the
same edge set by iterating a purely local step: drop the edges that no
longer tie a node to a lowest neighbor, then erode both carriers so the
next step sees one pair further down each track.  The local route needs
the minima pinned at 0, which it does internally; the returned graph
always carries the original weights on the surviving carriers.
"""

from __future__ import annotations

from .adjunction import (
    erode_edges_to_nodes,
    erode_nodes_to_edges,
)
from .flooding import _inherit_minima, _minimum_nodes, minima_of_flooding, zero_minima
from .graphs import UNSET, WeightedGraph, lowest_edge_filter


def prune_to_steepness(g: WeightedGraph, k: int) -> WeightedGraph:
    """Keep only the edges heading minimal tracks of depth ``k``.

    k=1 changes nothing; k=2 keeps the edges toward each node's lowest
    neighbors (lowest after pinning the minima at 0); larger k looks
    further down the tracks.  Edges inside the minima always survive.
    The result is a flooding graph with the same regional minima, so it
    inherits the cached minima of ``g``, its flooding certificate.
    """
    kept = set()
    for cands in minimal_track_edges(g, k).values():
        kept.update(cands)
    return _inherit_minima(g.partial(kept), g)


def minimal_track_edges(g: WeightedGraph, k: int) -> dict:
    """Per node outside the minima, the edges starting its minimal tracks.

    The key ``None`` holds the edges inside regional minima, which the
    pruning never touches.  Tracks stop on reaching a minimum node; all
    candidate edges of a node share the node's own weight, so tracks are
    compared by their tails.
    """
    if k < 1:
        raise ValueError("steepness depth must be >= 1")
    nw = g.node_weights
    ew = g.edge_weights
    labels = minima_of_flooding(g).values
    in_min = [v != UNSET for v in labels]

    # best[i] = minimal lexicographic tail of a track starting at i with
    # the current budget; () once inside a minimum or out of budget.
    best: list[tuple] = [() for _ in range(g.num_nodes)]
    for _ in range(k - 1):
        nxt = []
        for i in range(g.num_nodes):
            if in_min[i] or not g.neighbors(i):
                nxt.append(())
                continue
            w = nw[i]
            lo = None
            for j, eid in g.neighbors(i):
                if ew[eid] == w:
                    cand = (w,) + best[j]
                    if lo is None or cand < lo:
                        lo = cand
            nxt.append(lo if lo is not None else ())
        best = nxt

    out: dict = {}
    inside = []
    for eid, (u, v) in enumerate(g.edges):
        if in_min[u] and in_min[v]:
            inside.append(eid)
    out[None] = frozenset(inside)
    for i in range(g.num_nodes):
        if in_min[i] or not g.neighbors(i):
            continue
        w = nw[i]
        cands = [(best[j], eid) for j, eid in g.neighbors(i) if ew[eid] == w]
        lo = min(tail for tail, _ in cands)
        out[i] = frozenset(eid for tail, eid in cands if tail == lo)
    return out


def erode_weights(g: WeightedGraph, times: int = 1) -> WeightedGraph:
    """Erode node and edge weights simultaneously from the same input.

    Both carriers shrink one step: edges via edges->nodes->edges, nodes
    via nodes->edges->nodes.  With the regional minima pinned at 0,
    iterating lets each track's lowest value glide upward one pair per
    step, 0 being absorbing.
    """
    out = g
    for _ in range(times):
        nw = out.require_node_weights()
        ew = out.require_edge_weights()
        new_e = erode_nodes_to_edges(out, erode_edges_to_nodes(out, ew))
        new_n = erode_edges_to_nodes(out, erode_nodes_to_edges(out, nw))
        out = out.with_weights(node_weights=new_n, edge_weights=new_e)
    return out


def local_prune_step(g: WeightedGraph) -> WeightedGraph:
    """One local pruning step: drop demoted edges, erode both carriers.

    An edge survives only while it still ties a node to one of its lowest
    neighbors; surviving carriers then take the eroded weights, letting
    the next step compare descents one pair further down.  (Erosion alone
    would leave edges toward higher neighbors looking minimal at plateau
    nodes, so the filter reads the weights before they glide.)
    """
    kept = lowest_edge_filter(g, "lowest_nodes")
    return erode_weights(g.partial(kept))


def local_prune(g: WeightedGraph, m: int) -> WeightedGraph:
    """Iterate the local step ``m`` times, then restore original weights.

    The surviving edge set equals ``prune_to_steepness(g, m + 1)``;
    m=0 is the identity.
    """
    if m < 0:
        raise ValueError("iteration count must be >= 0")
    z = zero_minima(g, _minimum_nodes(minima_of_flooding(g)))
    for _ in range(m):
        z = local_prune_step(z)
    survivors = set(z.edges)
    kept = [eid for eid, e in enumerate(g.edges) if e in survivors]
    return g.partial(kept)


def is_steep(g: WeightedGraph, k: int) -> bool:
    """True iff depth-``k`` pruning would leave the graph unchanged.

    Checked locally: none of the first k-1 local pruning steps may drop
    an edge.  Steps only ever remove edges, so that holds exactly when
    ``local_prune(g, k - 1)`` keeps every edge.  k=1 holds for every
    flooding graph.
    """
    if k < 1:
        raise ValueError("steepness depth must be >= 1")
    return len(local_prune(g, k - 1).edges) == len(g.edges)
