"""Pruning a flooding graph down to its steepest descent tracks.

Descents are chains of flooding pairs with never-increasing weights.
``prune_to_steepness`` keeps, per node outside the minima, exactly the
adjacent edges that start a depth-k track of minimal lexicographic
weight (tracks may stop early when they reach a minimum, and a shorter
track beats every extension of itself).  Tracks are never built: each
node holds an integer rank that orders them (``track_ranks``), refined
one pair deeper per pass until it repeats.  ``local_prune`` reaches the
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
from .flooding import _certify, _flooding_pairs, _zeroed_nodes, minima_of_flooding
from .graphs import UNSET, WeightedGraph, lowest_edge_filter
from .weights import TOP


def prune_to_steepness(g: WeightedGraph, k: int) -> WeightedGraph:
    """Keep only the edges heading minimal tracks of depth ``k``.

    k=1 changes nothing; k=2 keeps the edges toward each node's lowest
    neighbors (lowest after pinning the minima at 0); larger k looks
    further down the tracks.  Edges inside the minima always survive.
    The result is a flooding graph with the same regional minima: every
    node outside them keeps a flooding pair and the minima keep their
    edges, so it is certified with the cached minima of ``g``.
    """
    (in_min, tails, heads, eids), (rank, lo) = _kept_pairs(g, k)
    kept = [eid for i, j, eid in zip(tails, heads, eids) if rank[j] == lo[i]]
    return _certify(g.partial(_inner_edges(g, in_min) + kept), minima_of_flooding(g))


def _kept_pairs(g: WeightedGraph, k: int) -> tuple[tuple, tuple]:
    """``_flooding_pairs(g)`` and the ranks ``(rank, lo)`` of ``_minimal_pairs``
    that tell which of them depth-``k`` pruning keeps; at k = 1, every pair."""
    pairs = _flooding_pairs(g)
    return pairs, _minimal_pairs(g, k, pairs)


def _inner_edges(g: WeightedGraph, in_min: list) -> list[int]:
    """Ids of the edges inside the minima, which pruning never touches."""
    return [eid for eid, (u, v) in enumerate(g.edges) if in_min[u] and in_min[v]]


def _least(rank: list, tails: list, heads: list, none: int) -> list:
    """Per node, the least rank over its pair heads (``none`` if no pair)."""
    lo = [none] * len(rank)
    for i, j in zip(tails, heads):
        r = rank[j]
        if r < lo[i]:
            lo[i] = r
    return lo


def _refine(nw, lo: list, stride: int) -> list[int]:
    """One pass deeper: a node keys on its weight, then ``lo``, its least
    head rank (``stride`` if it heads no pair, keyed -1), and the keys
    rank densely."""
    keys = [w * stride + r if r < stride else -1 for w, r in zip(nw, lo)]
    dense = {key: r for r, key in enumerate(sorted(set(keys)))}
    return [dense[key] for key in keys]


def _refined(nw, pairs: tuple, depth: int) -> list[int]:
    """``track_ranks`` over the mask and lists of ``_flooding_pairs``."""
    if depth < 1:
        return [0] * len(nw)
    in_min, tails, heads, _ = pairs
    rank = [0 if m else w + 1 for w, m in zip(nw, in_min)]  # depth 1
    stride = max(rank, default=0) + 1
    for _ in range(depth - 1):
        nxt = _refine(nw, _least(rank, tails, heads, stride), stride)
        if nxt == rank:
            break
        rank, stride = nxt, max(nxt) + 1
    return rank


def track_ranks(g: WeightedGraph, depth: int) -> list[int]:
    """Per node, an integer that orders the minimal depth-``depth`` tracks.

    A node's minimal track starts with its own weight and follows its
    flooding pairs to the least track of depth ``depth`` - 1, stopping
    on a minimum; ranks compare as these tuples do, and a minimum ranks 0.
    Depth 1 ranks by weight alone.  Each deeper pass keys a node by its
    weight, then the least rank over its pair heads, and re-ranks the
    distinct keys densely, one pair deeper per pass (no doubling) until
    the ranks repeat: a huge depth costs a pass per pair of the longest
    minimal track, L passes on a one-pixel serpentine corridor of L pixels.
    """
    return _refined(g.node_weights, _flooding_pairs(g), depth)


def _minimal_pairs(g: WeightedGraph, k: int, pairs: tuple) -> tuple[list, list]:
    """The depth-(k-1) track ranks and each node's least head rank
    (``_least``) over the flooding pairs ``pairs`` of ``_flooding_pairs``.
    Pair p starts a minimal depth-k track, and depth-k pruning keeps it,
    iff ``rank[heads[p]] == lo[tails[p]]``; each caller tests that in place
    over the pair columns.  Pruning and every watershed labeler come
    through here, so it alone refuses k < 1."""
    if k < 1:
        raise ValueError("steepness depth must be >= 1")
    _, tails, heads, _ = pairs
    rank = _refined(g.node_weights, pairs, k - 1)
    return rank, _least(rank, tails, heads, max(rank, default=0) + 1)


def _upstream(g: WeightedGraph, k: int, deeper: bool = False) -> tuple[list, list]:
    """The depth-(k-1) track ranks (depth k if ``deeper``) and, per node,
    the ascending tails of the minimal depth-k pairs it heads, filled
    straight from the pair columns: the rows every watershed labeler walks
    upward from the minima.  Memoised on ``g``: ``_flooding_pairs`` (not
    per ``k``) and the last ``k``'s ranks, least head ranks and rows."""
    memo = vars(g).get("_upstream") or (_flooding_pairs(g), None, None, None, None)
    pairs, last, rank, lo, rows = memo
    if last != k:
        rank, lo = _minimal_pairs(g, k, pairs)
        rows = [[] for _ in range(g.num_nodes)]
        for i, j in zip(pairs[1], pairs[2]):
            if rank[j] == lo[i]:
                rows[j].append(i)
        for row in rows:
            row.sort()  # the order of the edge list is the input's
        vars(g)["_upstream"] = (pairs, k, rank, lo, rows)
    if deeper:
        return _refine(g.node_weights, lo, max(rank, default=0) + 1), rows
    return rank, rows


def minimal_track_edges(g: WeightedGraph, k: int) -> dict:
    """Per node outside the minima, the edges starting its minimal tracks.

    The key ``None`` holds the edges inside regional minima, which the
    pruning never touches.  Tracks stop on reaching a minimum node; all
    candidate edges of a node share the node's own weight, so a node
    picks the pairs whose head has the least track rank.
    """
    (in_min, tails, heads, eids), (rank, lo) = _kept_pairs(g, k)
    picked: dict = {}
    for i, j, eid in zip(tails, heads, eids):
        if rank[j] == lo[i]:
            picked.setdefault(i, []).append(eid)
    out: dict = {None: frozenset(_inner_edges(g, in_min))}
    out.update((i, frozenset(picked[i])) for i in sorted(picked))
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
    nw = _zeroed_nodes(g, {i for i, v in enumerate(minima_of_flooding(g).values) if v != UNSET})
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
