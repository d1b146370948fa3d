"""Graph-native shortest-distance algorithms on flooding graphs.

All of them grow a settled domain from the labeled regional minima and
propagate labels along the geodesics:

* ``dijkstra_to_minima`` estimates boundary nodes and settles the
  smallest estimate (for depth 1 this is exactly Prim's forest growth
  from the minima).
* ``core_expanding`` exploits the structure of lexicographic distances:
  the settled boundary node with the lowest depth-(k-1) valuation may
  immediately settle every unsettled neighbor that floods it, so each
  node enters the queue exactly once.
* ``hq_watershed`` is depth-2 core expansion.  The queue sweeps one
  first-in, first-out bucket per rank (Meyer 1991), so plateaus divide
  from their lower boundary inwards.

They walk one set of rows, memoised on the graph by ``steepness``: per
node, the tails of the minimal depth-k flooding pairs it heads, with
the depth-(k-1) track ranks core expansion queues on; Dijkstra refines
them once more.  They keep a parent per node and chain the distance
tuples from the parents only when they return them; ``basin_labels``
gives the labels of any of the three and builds no tuple.

Also here: additive toll/topographic distances on node-weighted graphs
and the decomposition of a node field into local tolls whose integration
along steepest descents recovers the field.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Iterable, Optional, Sequence, Union

from .adjunction import erode_edges_to_nodes, erode_nodes_to_edges
from .errors import MorphographError, NoRoots
from .flooding import minima_of_flooding, parse_tie
from .graphs import Labeling, UNSET, WeightedGraph, regional_minima
from .lexalgebra import LexWeight, UNIT, ZERO
from .steepness import _upstream


def _seed_minima(g: WeightedGraph):
    """Labels, parents (-1 in a minimum, None elsewhere) and the minima."""
    labels = list(minima_of_flooding(g).values)
    parent: list = [None if lab == UNSET else -1 for lab in labels]
    return labels, parent, [i for i, p in enumerate(parent) if p is not None]


def _settle(g: WeightedGraph, k: int, rng, on_pop: bool) -> tuple[list, list, list]:
    """Labels, parents and settle order of a sweep from the minima over
    per-rank FIFO buckets, Meyer's hierarchical queue (1991).  A node is
    queued once, by the first head it is reached from, never below the
    bucket being swept: minimal tracks do not ascend.

    ``core_expanding`` queues on depth-(k-1) ranks and settles a node on
    discovery, by its first head to leave the queue, a minimal one;
    under a seeded tie each bucket is a heap on (draw, push index).
    ``dijkstra_to_minima`` (``on_pop``) queues j on its depth-k rank, the
    order of its estimates (j's weight, then its minimal heads' rank),
    and settles it when swept; a later head with another label ties it.
    """
    labels, parent, order = _seed_minima(g)
    rank, rows = _upstream(g, k, deeper=on_pop)
    # one bucket per distinct rank, in rank order: depth-1 ranks are
    # weights + 1 and may be sparse, up to W_MAX + 1
    buckets = {r: [] for r in sorted(set(rank))}
    if rng is not None and not on_pop:  # one draw per push, in push order
        buckets[0] = [(rng.random(), i, m) for i, m in enumerate(order)]
        heapq.heapify(buckets[0])  # a minimum ranks 0
        for bucket in buckets.values():
            while bucket:
                t = heapq.heappop(bucket)[2]
                for s in rows[t]:
                    if parent[s] is None:
                        parent[s], labels[s] = t, labels[t]
                        heapq.heappush(buckets[rank[s]], (rng.random(), len(order), s))
                        order.append(s)
        return labels, parent, order

    settled = [p is not None for p in parent] if on_pop else None  # else parent tells
    ties: dict[int, int] = {}
    buckets[0], order = order, ([] if on_pop else order[:])  # core has settled the minima
    for bucket in buckets.values():
        for t in bucket:  # appending to the bucket being swept keeps it FIFO
            if on_pop:
                settled[t] = True
                order.append(t)
            lab = labels[t]
            for s in rows[t]:
                if parent[s] is None:
                    parent[s], labels[s] = t, lab
                    if not on_pop:
                        order.append(s)
                    buckets[rank[s]].append(s)
                elif on_pop and lab != labels[s] and not settled[s]:
                    ties[s] = n = ties.get(s, 1) + 1
                    if lab < labels[s] if rng is None else rng.random() < 1.0 / n:
                        labels[s] = lab
    return labels, parent, order


def _chain(g: WeightedGraph, k: int, parent: list, order: list) -> list[LexWeight]:
    """Distances chained from the parents in settle order; ZERO if unsettled."""
    nw = g.node_weights
    dist: list[LexWeight] = [ZERO] * g.num_nodes
    for i in order:  # lex_chain's ZERO cannot fire: no head outweighs its tail
        p = parent[i]
        dist[i] = UNIT if p < 0 else (nw[i],) + dist[p][:k - 1]
    return dist


def dijkstra_to_minima(
    g: WeightedGraph, k: int, tie: Union[str, random.Random, None] = "min-label"
) -> tuple[list[LexWeight], Labeling]:
    """Greedy settlement by smallest depth-k estimate.

    A boundary node j flooding a settled node l is estimated by chaining
    its own weight in front of l's settled distance; the smallest
    estimate is final.  Equal estimates with different labels resolve by
    the tie policy.
    """
    labels, parent, order = _settle(g, k, parse_tie(tie), on_pop=True)
    return _chain(g, k, parent, order), Labeling(tuple(labels), "nodes")


def core_expanding(
    g: WeightedGraph, k: int, tie: Union[str, random.Random, None] = "min-label"
) -> tuple[list[LexWeight], Labeling, int]:
    """Settle each node the moment its lowest flooded neighbor is extracted.

    Returns (distances, labeling, enqueue_count); the count equals the
    number of nodes, each entering the queue exactly once.
    """
    labels, parent, order = _settle(g, k, parse_tie(tie), on_pop=False)
    return _chain(g, k, parent, order), Labeling(tuple(labels), "nodes"), len(order)


def basin_labels(
    g: WeightedGraph, k: int, algo: str = "core",
    tie: Union[str, random.Random, None] = "min-label",
) -> Labeling:
    """The catchment labels of watershed ``algo``, with no distance built.

    ``algo`` is ``core`` or ``dijkstra`` (the labels of
    ``core_expanding`` and ``dijkstra_to_minima`` at depth ``k``) or
    ``hq`` (``hq_watershed``, which takes neither depth nor tie).
    """
    if algo == "hq":
        return hq_watershed(g)
    if algo not in ("core", "dijkstra"):
        raise ValueError(f"unknown watershed algorithm {algo!r}")
    return Labeling(tuple(_settle(g, k, parse_tie(tie), algo == "dijkstra")[0]), "nodes")


def hq_watershed(g: WeightedGraph) -> Labeling:
    """Classical watershed: hierarchical-queue flood from the minima.

    This is depth-2 core expansion under ``min-label``: on a flooding
    graph the depth-1 ranks (0 in a minimum, else weight + 1) order the
    nodes as buckets of their weights with the minima pinned to 0.  The
    queue sweeps one first-in, first-out bucket per rank (Meyer 1991), so
    plateau nodes go to the wavefront that reaches them first (from the
    plateau's lower boundary inwards).
    """
    return Labeling(tuple(_settle(g, 2, None, on_pop=False)[0]), "nodes")


# ---------------------------------------------------------------------------
# additive node-cost distances
# ---------------------------------------------------------------------------


def _root_groups(roots, num_nodes: int) -> list[frozenset[int]]:
    groups = [frozenset([r]) if isinstance(r, int) else frozenset(r) for r in roots]
    if not groups or any(not gset for gset in groups):
        raise NoRoots("empty root set")
    if any(not 0 <= r < num_nodes for gset in groups for r in gset):
        raise IndexError("root outside the node range")
    return groups


def node_erosion(g: WeightedGraph, n: Sequence[int]) -> tuple[int, ...]:
    """Per node, min of its own weight and its neighbors' weights."""
    return tuple(map(min, n, erode_edges_to_nodes(g, erode_nodes_to_edges(g, n))))


def toll_distances(
    g: WeightedGraph,
    roots: Iterable,
    mode: str = "toll",
    include_root_cost: bool = True,
) -> tuple[list[Optional[int]], Labeling]:
    """Additive shortest distance with per-node entry costs.

    mode="toll": entering a node costs its weight; a root starts at its
    own toll (or 0 with ``include_root_cost=False``).  mode="topographic":
    entering costs the drop to the lowest neighbor (weight minus eroded
    weight) and roots start at their altitude, so geodesics are steepest
    descents read backwards.  ``roots`` is a set of node ids or of node
    groups sharing one label (a root's first group names it).  Labels
    propagate along the geodesics, smallest label winning ties.
    """
    nw = g.require_node_weights()
    groups = _root_groups(roots, g.num_nodes)
    if mode == "toll":
        cost = list(nw)
        start = [nw[i] if include_root_cost else 0 for i in range(g.num_nodes)]
    elif mode == "topographic":
        eroded = node_erosion(g, nw)
        cost = [nw[i] - eroded[i] for i in range(g.num_nodes)]
        start = list(nw)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    # neighbors in ascending node id, so that zero-cost ties settle in one
    # order whatever the order of the edge list
    nbrs: list[list[int]] = [[] for _ in range(g.num_nodes)]
    for u, v in sorted(g.edges + tuple([(v, u) for u, v in g.edges])):
        nbrs[u].append(v)
    dist: list[Optional[int]] = [None] * g.num_nodes
    labels = [UNSET] * g.num_nodes
    settled = [False] * g.num_nodes
    counter = itertools.count()
    heap: list = []
    for lab, group in enumerate(groups, start=1):
        for r in sorted(group):
            if dist[r] is None:  # a root in a later group keeps its first label
                dist[r], labels[r] = start[r], lab
                heapq.heappush(heap, (dist[r], next(counter), r))
    while heap:
        d, _, i = heapq.heappop(heap)
        if settled[i] or d != dist[i]:
            continue
        settled[i] = True
        for j in nbrs[i]:
            if settled[j]:
                continue
            nd = d + cost[j]
            if dist[j] is None or nd < dist[j]:
                dist[j] = nd
                labels[j] = labels[i]
                heapq.heappush(heap, (nd, next(counter), j))
            elif nd == dist[j] and labels[i] < labels[j]:
                labels[j] = labels[i]
    return dist, Labeling(tuple(labels), "nodes")


def reconstruct_by_integration(g: WeightedGraph) -> tuple[tuple[int, ...], Labeling]:
    """Decompose a node field into local tolls plus a catchment partition.

    Minima keep their altitude as toll, every other node the drop to its
    lowest neighbor.  Summing tolls along a steepest-descent path from a
    minimum recovers the field exactly, which is verified before
    returning.
    """
    nw = g.require_node_weights()
    groups = regional_minima(g, "nodes")
    span = {i for m in groups for i in m}
    eroded = node_erosion(g, nw)
    tolls = tuple(nw[i] if i in span else nw[i] - eroded[i] for i in range(g.num_nodes))
    # topographic distances from one erosion: a minimum settles at its altitude
    # before any higher neighbor, so its toll (>= 0) changes no distance or label
    dist, labeling = toll_distances(g.with_weights(node_weights=tolls), groups)
    for i in range(g.num_nodes):
        if dist[i] is not None and dist[i] != nw[i]:
            raise MorphographError(
                f"integration failed at node {i}: {dist[i]} != {nw[i]}"
            )
    return tolls, labeling
