"""Pruning a flooding graph down to its steepest descent tracks.

Descents are chains of flooding pairs with never-increasing weights.
``prune_to_steepness`` keeps, per node outside the minima, exactly the
adjacent edges that start a depth-k track of minimal lexicographic
weight (tracks may stop early when they reach a minimum, and a shorter
track beats every extension of itself).  ``local_prune`` reaches the
same edge set by iterating a purely local step on the node weights,
with the minima pinned at 0: each edge is two arcs, one per end, and
each node keeps only its arcs to its lowest live neighbors, then takes
their weight, so the next step sees one pair further down each track.
An edge survives while either of its arcs does; the returned graph
carries the original weights.  ``local_prune_step`` and
``erode_weights`` give the first such step as a graph, built from the
adjunction operators.
"""

from __future__ import annotations

from .adjunction import erode_edges_to_nodes, erode_nodes_to_edges
from .flooding import _inherit_minima, _minimum_nodes, _zeroed_nodes, minima_of_flooding
from .graphs import UNSET, WeightedGraph, lowest_edge_filter
from .weights import TOP


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
    compared by their tails.  Each pass runs over the flooding pairs.
    """
    if k < 1:
        raise ValueError("steepness depth must be >= 1")
    nw, ew = g.node_weights, g.edge_weights
    in_min = [v != UNSET for v in minima_of_flooding(g).values]

    def pairs():
        """(i, j, eid): node i outside the minima floods edge eid to j."""
        for eid, ((u, v), w) in enumerate(zip(g.edges, ew)):
            if w == nw[u] and not in_min[u]:
                yield u, v, eid
            if w == nw[v] and not in_min[v]:
                yield v, u, eid

    def lowest(tails):
        """Per node, the least ``tails[j]`` over its pairs (None if none)."""
        lo = [None] * g.num_nodes
        for i, j, _ in pairs():
            if lo[i] is None or tails[j] < lo[i]:
                lo[i] = tails[j]
        return lo

    # best[i] = minimal lexicographic tail of a track starting at i with
    # the current budget; () once inside a minimum or out of budget.  All
    # pairs of i share its weight, so they are ranked by their tails.  A
    # pass that changes nothing has reached the fixed point of every later one.
    best: list = [()] * g.num_nodes
    for _ in range(k - 1):
        nxt = [() if t is None else (w,) + t for w, t in zip(nw, lowest(best))]
        if nxt == best:
            break
        best = nxt
    lo, picked = [None] * g.num_nodes, [None] * g.num_nodes
    for i, j, eid in pairs():  # the pairs of each node reaching its least tail
        if lo[i] is None or best[j] < lo[i]:
            lo[i], picked[i] = best[j], [eid]
        elif best[j] == lo[i]:
            picked[i].append(eid)

    out: dict = {None: frozenset([eid for eid, (u, v) in enumerate(g.edges)
                                  if in_min[u] and in_min[v]])}
    out.update((i, frozenset(p)) for i, p in enumerate(picked) if p)
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
        nw, ew = out.require_node_weights(), out.require_edge_weights()
        out = out.with_weights(
            node_weights=erode_edges_to_nodes(out, erode_nodes_to_edges(out, nw)),
            edge_weights=erode_nodes_to_edges(out, erode_edges_to_nodes(out, ew)),
        )
    return out


def local_prune_step(g: WeightedGraph) -> WeightedGraph:
    """The first local pruning step: drop demoted edges, erode both carriers.

    An edge survives only while it ties a node to one of its lowest
    neighbors; surviving carriers then take the eroded weights.  This is
    the first step only: iterating it is not ``local_prune``, since an
    eroded graph no longer records which end of an edge dropped it, and
    an end may take back an edge it dropped once its neighbor glides down.
    """
    return erode_weights(g.partial(lowest_edge_filter(g, "lowest_nodes")))


def _local_survivors(g: WeightedGraph, m: int) -> set[int]:
    """Edge ids of ``g`` left by ``m`` local steps on its zeroed minima.

    Each edge is two arcs, one from each end.  A step keeps the arcs from
    a node to its lowest live heads and lowers the node to that head's
    weight, so after t steps a node weighs the t-th weight down its
    minimal tracks; an edge survives while either of its arcs does.  The
    loop leaves at its fixed point: a step that keeps every arc and
    lowers no node would repeat forever.
    """
    if m < 0:
        raise ValueError("iteration count must be >= 0")
    nw = _zeroed_nodes(g, _minimum_nodes(minima_of_flooding(g)))
    live = [(u, v, eid) for eid, (u, v) in enumerate(g.edges)]
    live += [(v, u, eid) for u, v, eid in live]
    for _ in range(m):
        lo = [TOP] * g.num_nodes  # per tail, its lowest live head
        for i, j, _ in live:
            if nw[j] < lo[i]:
                lo[i] = nw[j]
        kept = [arc for arc in live if nw[arc[1]] == lo[arc[0]]]
        if len(kept) == len(live) and lo == nw:
            break
        live, nw = kept, lo  # a node with no arc is never a head
    return {eid for _, _, eid in live}


def local_prune(g: WeightedGraph, m: int) -> WeightedGraph:
    """Iterate the local step ``m`` times on arcs, keep the original weights.

    The surviving edge set equals ``prune_to_steepness(g, m + 1)``;
    m=0 is the identity.  The steps narrow a list of live arcs, and the
    one graph built is the partial graph of the survivors.
    """
    return g.partial(_local_survivors(g, m))


def is_steep(g: WeightedGraph, k: int) -> bool:
    """True iff depth-``k`` pruning would leave the graph unchanged.

    Checked locally: none of the first k-1 local pruning steps may drop
    an edge.  Steps only ever remove edges, so that holds exactly when
    ``local_prune(g, k - 1)`` keeps every edge.  k=1 holds for every
    flooding graph.
    """
    if k < 1:
        raise ValueError("steepness depth must be >= 1")
    return len(_local_survivors(g, k - 1)) == len(g.edges)
