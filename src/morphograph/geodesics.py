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
* ``hq_watershed`` is depth-2 core expansion: its hierarchical queue is
  the heap on depth-1 ranks, whose counter keeps each bucket first in,
  first out, so plateaus divide from their lower boundary inwards.

They walk one set of rows, memoised on the graph by ``steepness``: per
node, the tails of the minimal depth-k flooding pairs it heads, with
the depth-(k-1) track ranks they queue on.  They keep a parent per node
and chain the distance tuples from the parents only when they return
them; ``basin_labels`` gives the labels of any of the three and builds
no tuple.

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
from .lexalgebra import LexWeight, UNIT, ZERO, lex_chain
from .steepness import _upstream


def _seed_minima(g: WeightedGraph):
    """Labels, parents (-1 in a minimum, None elsewhere) and the minima."""
    labels = list(minima_of_flooding(g).values)
    parent: list = [None if lab == UNSET else -1 for lab in labels]
    return labels, parent, [i for i, p in enumerate(parent) if p is not None]


def _settle_dijkstra(g: WeightedGraph, k: int, rng) -> tuple[list, list, list]:
    """Labels, parents and settle order of ``dijkstra_to_minima``: j
    flooding l is estimated by ``nw[j] * stride + rank[l]``, which orders
    as chaining ``nw[j]`` in front of l's distance does.  Only minimal
    heads relax j, and they share one rank, so the first fixes j's
    estimate and each later one ties it."""
    labels, parent, order = _seed_minima(g)
    settled = [p is not None for p in parent]
    rank, rows = _upstream(g, k)
    stride = max(rank, default=0) + 1
    nw = g.node_weights

    ties: dict[int, int] = {}
    counter = itertools.count()
    heap: list = []

    def relax(l: int) -> None:
        for j in rows[l]:
            if settled[j]:
                continue
            if parent[j] is None:
                labels[j], parent[j] = labels[l], l
                ties[j] = 1
                heapq.heappush(heap, (nw[j] * stride + rank[l], next(counter), j))
            elif labels[l] != labels[j]:
                ties[j] += 1
                if rng is None:
                    if labels[l] < labels[j]:
                        labels[j] = labels[l]
                elif rng.random() < 1.0 / ties[j]:
                    labels[j] = labels[l]

    for m in order:  # the minima: only the loop below appends
        relax(m)
    while heap:
        j = heapq.heappop(heap)[2]
        settled[j] = True
        order.append(j)
        relax(j)
    return labels, parent, order


def _settle_core(g: WeightedGraph, k: int, rng) -> tuple[list, list, list]:
    """Labels, parents and settle order of ``core_expanding``: a node is
    queued by its track rank, which orders as its distance's first k-1
    levels do, so the first head of a node to leave the queue is one of
    its minimal heads and settles it."""
    labels, parent, order = _seed_minima(g)
    rank, rows = _upstream(g, k)

    counter = itertools.count()
    heap: list = []

    def push(t: int) -> None:
        sub = rng.random() if rng is not None else 0.0
        heapq.heappush(heap, (rank[t], sub, next(counter), t))

    for m in order:
        push(m)
    while heap:
        t = heapq.heappop(heap)[3]
        for s in rows[t]:
            if parent[s] is None:
                parent[s], labels[s] = t, labels[t]
                order.append(s)
                push(s)
    return labels, parent, order


def _chain(g: WeightedGraph, k: int, parent: list, order: list) -> list[LexWeight]:
    """Distances chained from the parents in settle order; ZERO if unsettled."""
    nw = g.node_weights
    dist: list[LexWeight] = [ZERO] * g.num_nodes
    for i in order:
        p = parent[i]
        dist[i] = UNIT if p < 0 else lex_chain((nw[i],), dist[p], k)
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
    labels, parent, order = _settle_dijkstra(g, k, parse_tie(tie))
    return _chain(g, k, parent, order), Labeling(tuple(labels), "nodes")


def core_expanding(
    g: WeightedGraph, k: int, tie: Union[str, random.Random, None] = "min-label"
) -> tuple[list[LexWeight], Labeling, int]:
    """Settle each node the moment its lowest flooded neighbor is extracted.

    Returns (distances, labeling, enqueue_count); the count equals the
    number of nodes, each entering the queue exactly once.
    """
    labels, parent, order = _settle_core(g, k, parse_tie(tie))
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
    settle = {"core": _settle_core, "dijkstra": _settle_dijkstra}.get(algo)
    if settle is None:
        raise ValueError(f"unknown watershed algorithm {algo!r}")
    return Labeling(tuple(settle(g, k, parse_tie(tie))[0]), "nodes")


def hq_watershed(g: WeightedGraph) -> Labeling:
    """Classical watershed: hierarchical-queue flood from the minima.

    This is depth-2 core expansion under ``min-label``: on a flooding
    graph the depth-1 ranks (0 in a minimum, else weight + 1) order the
    nodes as buckets of their weights with the minima pinned to 0, and
    the heap counter keeps each bucket first in, first out, so plateau
    nodes go to the wavefront that reaches them first (from the
    plateau's lower boundary inwards).
    """
    return Labeling(tuple(_settle_core(g, 2, None)[0]), "nodes")


# ---------------------------------------------------------------------------
# additive node-cost distances
# ---------------------------------------------------------------------------


def _root_groups(roots) -> list[frozenset[int]]:
    groups = []
    for r in roots:
        groups.append(frozenset([r]) if isinstance(r, int) else frozenset(r))
    if not groups or any(not gset for gset in groups):
        raise NoRoots("empty root set")
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
    groups sharing one label.  Labels propagate along the geodesics,
    smallest label winning ties.
    """
    nw = g.require_node_weights()
    groups = _root_groups(roots)
    if mode == "toll":
        cost = list(nw)
        start = [nw[i] if include_root_cost else 0 for i in range(g.num_nodes)]
    elif mode == "topographic":
        eroded = node_erosion(g, nw)
        cost = [nw[i] - eroded[i] for i in range(g.num_nodes)]
        start = list(nw)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    dist: list[Optional[int]] = [None] * g.num_nodes
    labels = [UNSET] * g.num_nodes
    settled = [False] * g.num_nodes
    counter = itertools.count()
    heap: list = []
    for lab, group in enumerate(groups, start=1):
        for r in sorted(group):
            if dist[r] is None or start[r] < dist[r]:
                dist[r] = start[r]
                labels[r] = lab
            elif start[r] == dist[r] and lab < labels[r]:
                labels[r] = lab
            heapq.heappush(heap, (dist[r], next(counter), r))
    while heap:
        d, _, i = heapq.heappop(heap)
        if settled[i] or d != dist[i]:
            continue
        settled[i] = True
        for j, _ in g.neighbors(i):
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
    tolls = tuple(
        nw[i] if i in span else nw[i] - eroded[i] for i in range(g.num_nodes)
    )
    dist, labeling = toll_distances(g, groups, mode="topographic")
    for i in range(g.num_nodes):
        if dist[i] is not None and dist[i] != nw[i]:
            raise MorphographError(
                f"integration failed at node {i}: {dist[i]} != {nw[i]}"
            )
    return tolls, labeling
