"""Watershed partitions: unique drains, drainage forests, basins and zones.

The pruning operators keep every minimal descent; the operators here
make choices.  ``unique_drain`` leaves exactly one equal-weight edge per
node outside the minima, forcing a single path from each node to a
minimum.  ``drainage_forest`` turns that into a spanning forest with one
tree per minimum; its total weight does not depend on the choices made.
``basins_with_zones`` labels nodes by upward propagation along minimal
descent tracks and marks nodes (and their upstream) reached by two
distinct labels simultaneously with ZONE; ``partition`` resolves those
ties by policy instead.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Union

from .flooding import assign_pairs, minima_of_flooding, minima_sets, parse_tie
from .graphs import Labeling, UNSET, ZONE, WeightedGraph
from .steepness import minimal_track_edges


@dataclass(frozen=True)
class SpanningForest:
    """Forest edge set (edge ids of the host graph) plus per-node tree label.

    Each tree contains exactly one regional minimum, whose label it
    carries; the forest covers all nodes.
    """

    edges: frozenset[int]
    labels: Labeling

    @property
    def num_trees(self) -> int:
        return self.labels.num_labels


def _minima_inside(g: WeightedGraph) -> tuple[Labeling, frozenset[int]]:
    labeling = minima_of_flooding(g)
    inside = frozenset(i for i, v in enumerate(labeling.values) if v != UNSET)
    return labeling, inside


def unique_drain(
    g: WeightedGraph, tie: Union[str, random.Random, None] = "min-label"
) -> WeightedGraph:
    """Keep one flooding-pair edge per node outside the minima.

    Edges inside the minima survive untouched; everything else not chosen
    by the pairing is cut, leaving one and only one descent per node.
    """
    labeling, inside = _minima_inside(g)
    rng = parse_tie(tie)
    pairs = assign_pairs(g, inside, rng)
    kept = set(pairs.values())
    for eid, (u, v) in enumerate(g.edges):
        if u in inside and v in inside:
            kept.add(eid)
    return g.partial(kept)


def _minimum_tree(g: WeightedGraph, nodes: frozenset[int]) -> set[int]:
    """Edge ids of a breadth-first spanning tree of one minimum."""
    tree: set[int] = set()
    start = min(nodes)
    seen = {start}
    queue = deque([start])
    while queue:
        i = queue.popleft()
        for j, eid in g.neighbors(i):
            if j in nodes and j not in seen:
                seen.add(j)
                tree.add(eid)
                queue.append(j)
    return tree


def drainage_forest(
    g: WeightedGraph, tie: Union[str, random.Random, None] = "min-label"
) -> SpanningForest:
    """Spanning forest with one tree rooted in each regional minimum.

    Pairing edges drain every outside node; each minimum contributes a
    spanning tree of its internal plateau.  Every node joins the tree of
    the minimum its descent reaches; tree weight sums the outside node
    weights plus (size - 1) times the level per minimum, independent of
    the tie policy.
    """
    labeling, inside = _minima_inside(g)
    rng = parse_tie(tie)
    pairs = assign_pairs(g, inside, rng)
    edges: set[int] = set(pairs.values())
    for m in minima_sets(labeling):
        edges.update(_minimum_tree(g, m))

    labels = list(labeling.values)
    adj: dict[int, list[int]] = {}
    for eid in edges:
        u, v = g.edges[eid]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    queue = deque(i for i, lab in enumerate(labels) if lab != UNSET)
    while queue:
        i = queue.popleft()
        for j in adj.get(i, ()):
            if labels[j] == UNSET:
                labels[j] = labels[i]
                queue.append(j)
    return SpanningForest(frozenset(edges), Labeling(tuple(labels), "nodes"))


def forest_weight(g: WeightedGraph, forest: SpanningForest) -> int:
    ew = g.require_edge_weights()
    return sum(ew[eid] for eid in forest.edges)


# ---------------------------------------------------------------------------
# label propagation along minimal tracks
# ---------------------------------------------------------------------------


def _propagate(g: WeightedGraph, k: int, rng, keep_zones: bool) -> Labeling:
    # Pruning keeps the minima and the endpoints of every minimal track
    # edge, so the tracks of g itself serve: no pruned graph is built.
    cand = minimal_track_edges(g, k)
    labeling, inside = _minima_inside(g)
    labels = list(labeling.values)

    # far end of each candidate edge, per node
    nxt: dict[int, list[int]] = {}
    rev: dict[int, list[int]] = {}
    for i, eids in cand.items():
        if i is None:
            continue
        outs = []
        for eid in eids:
            u, v = g.edges[eid]
            far = v if u == i else u
            outs.append(far)
            rev.setdefault(far, []).append(i)
        nxt[i] = outs

    # wavefront step at which each node first takes a propagated value
    dist = {i: 0 for i in inside}
    order = []
    frontier = sorted(inside)
    step = 0
    while frontier:
        step += 1
        newly = []
        for f in frontier:
            for i in rev.get(f, ()):
                if i not in dist:
                    dist[i] = step
                    newly.append(i)
        newly.sort()
        order.extend(newly)
        frontier = newly

    for i in order:
        incoming = sorted(
            {j for j in nxt[i] if dist.get(j) == dist[i] - 1}
        )
        got = sorted({labels[j] for j in incoming})
        if ZONE in got:
            labels[i] = ZONE
        elif len(got) == 1:
            labels[i] = got[0]
        elif keep_zones:
            labels[i] = ZONE
        elif rng is None:
            labels[i] = got[0]
        else:
            labels[i] = labels[rng.choice(incoming)]
    return Labeling(tuple(labels), "nodes")


def basins_with_zones(g: WeightedGraph, k: int) -> Labeling:
    """Catchment basins plus ZONE where minimal tracks tie between labels.

    Propagation runs upward from the minima along the depth-k pruned
    graph; a node reached simultaneously by two distinct labels becomes
    ZONE, and ZONE spreads to everything upstream of it.
    """
    return _propagate(g, k, None, keep_zones=True)


def partition(
    g: WeightedGraph, k: int, tie: Union[str, random.Random, None] = "min-label"
) -> Labeling:
    """Every node assigned to exactly one basin, ties resolved by policy."""
    return _propagate(g, k, parse_tie(tie), keep_zones=False)
