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

from .flooding import _inherit_minima, _minimum_nodes, _zeroed_weights, minima_of_flooding
from .graphs import UNSET, WeightedGraph
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
    # pairs of i share its weight, so they are ranked by their tails.
    best: list = [()] * g.num_nodes
    for _ in range(k - 1):
        best = [() if t is None else (w,) + t for w, t in zip(nw, lowest(best))]
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
        nw, ew = list(out.require_node_weights()), list(out.require_edge_weights())
        _erode(out.edges, range(len(ew)), nw, ew)
        out = out.with_weights(node_weights=nw, edge_weights=ew)
    return out


def _erode(edges, live, nw: list[int], ew: list[int]) -> None:
    """``erode_weights`` in place over the edge ids ``live`` only: a node
    without a live edge takes TOP, a dead edge keeps a stale weight."""
    low_e, low_n = [TOP] * len(nw), [TOP] * len(nw)
    for eid in live:
        u, v = edges[eid]
        w, n = ew[eid], nw[u] if nw[u] < nw[v] else nw[v]
        if w < low_e[u]:
            low_e[u] = w
        if w < low_e[v]:
            low_e[v] = w
        if n < low_n[u]:
            low_n[u] = n
        if n < low_n[v]:
            low_n[v] = n
    for eid in live:
        u, v = edges[eid]
        ew[eid] = low_e[u] if low_e[u] < low_e[v] else low_e[v]
    nw[:] = low_n


def _narrow(edges, live: list[int], nw: list[int], ew: list[int]) -> list[int]:
    """One local pruning step over the edge ids ``live``: keeps the ids that
    still tie a node to a lowest live neighbor, then erodes over them."""
    lo = [TOP] * len(nw)
    for eid in live:
        u, v = edges[eid]
        if nw[v] < lo[u]:
            lo[u] = nw[v]
        if nw[u] < lo[v]:
            lo[v] = nw[u]
    kept = []
    for eid in live:
        u, v = edges[eid]
        if nw[v] == lo[u] or nw[u] == lo[v]:
            kept.append(eid)
    _erode(edges, kept, nw, ew)
    return kept


def local_prune_step(g: WeightedGraph) -> WeightedGraph:
    """One local pruning step: drop demoted edges, erode both carriers.

    An edge survives only while it still ties a node to one of its lowest
    neighbors; surviving carriers then take the eroded weights, letting
    the next step compare descents one pair further down.  (Erosion alone
    would leave edges toward higher neighbors looking minimal at plateau
    nodes, so the filter reads the weights before they glide.)
    """
    nw, ew = list(g.require_node_weights()), list(g.require_edge_weights())
    kept = _narrow(g.edges, list(range(len(g.edges))), nw, ew)
    return g.partial(kept).with_weights(node_weights=nw, edge_weights=[ew[e] for e in kept])


def _local_survivors(g: WeightedGraph, m: int) -> list[int]:
    """Edge ids of ``g`` left by ``m`` local steps on its zeroed minima."""
    if m < 0:
        raise ValueError("iteration count must be >= 0")
    nw, ew = _zeroed_weights(g, _minimum_nodes(minima_of_flooding(g)))
    live = list(range(len(g.edges)))
    for _ in range(m):
        live = _narrow(g.edges, live, nw, ew)
    return live


def local_prune(g: WeightedGraph, m: int) -> WeightedGraph:
    """Iterate the local step ``m`` times, then restore original weights.

    The surviving edge set equals ``prune_to_steepness(g, m + 1)``;
    m=0 is the identity.  The steps narrow a list of live edge ids, and
    the one graph built is the partial graph of the survivors.
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
