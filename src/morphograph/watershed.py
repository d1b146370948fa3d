"""Watershed partitions: unique drains, drainage forests, basins and zones.

The pruning operators keep every minimal descent; the operators here
make choices.  ``unique_drain`` leaves exactly one equal-weight edge per
node outside the minima, forcing a single path from each node to a
minimum.  ``drainage_forest`` turns that into a spanning forest with one
tree per minimum; its total weight does not depend on the choices made.
``basins_with_zones`` labels nodes by upward propagation along minimal
descent tracks and marks nodes (and their upstream) reached by two
distinct labels simultaneously with ZONE; ``partition`` resolves those
ties by policy instead.  A wavefront folds as it is scanned: a reached
node keeps its sources' common label, ZONE once two disagree (ZONE
disagrees with every label) or, under min-label, the least label; only
a seeded ``partition``, drawing uniformly over them, lists the sources.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Union

from .flooding import _flooding_pairs, _pair_nodes, _reach, minima_of_flooding, parse_tie
from .graphs import Labeling, UNSET, ZONE, WeightedGraph
from .steepness import _inner_edges, _upstream


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


def unique_drain(
    g: WeightedGraph, tie: Union[str, random.Random, None] = "min-label"
) -> WeightedGraph:
    """Keep one flooding-pair edge per node outside the minima.

    Edges inside the minima survive untouched; everything else not chosen
    by the pairing is cut, leaving one and only one descent per node.
    """
    pairs = _flooding_pairs(g)
    pair = _pair_nodes(g, pairs, None, parse_tie(tie))
    return g.partial(_inner_edges(g, pairs[0]) + [eid for eid in pair if eid >= 0])


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
    return _drain(g, _pair_nodes(g, _flooding_pairs(g), None, parse_tie(tie)))


def _drain(g: WeightedGraph, pair: list) -> SpanningForest:
    """The drainage forest, in ``g``'s edge ids, of the partial graph of ``g`` keeping the
    minima and each node's edge in ``pair`` (``_pair_nodes``'), unbuilt: a breadth-first tree
    per minimum from its least node, and each other node's pair edge and chain-end label."""
    out = [m or (UNSET if e < 0 else None) for m, e in zip(minima_of_flooding(g).values, pair)]
    edges, inner, rows, seen = g.edges, {}, {}, bytearray(g.num_nodes)
    for eid in _inner_edges(g, out):
        inner.setdefault(out[edges[eid][0]], []).append(eid)
    forest = [ids[0] for ids in inner.values() if len(ids) == 1]  # a lone edge is its tree
    for ids in inner.values():
        if len(ids) > 1:  # by edge, so that each row lists its neighbors in ascending order
            ids.sort(key=edges.__getitem__)
            for eid in ids:
                for end in edges[eid]:
                    rows.setdefault(end, []).append(eid)
            _reach(edges[ids[0]][0], rows, edges, seen, forest)
    for i, lab in enumerate(out):  # None: resolved once, with the rest of its pair chain
        if lab is None:
            chain, j = [], i
            while out[j] is None:
                chain.append(j)
                j = sum(edges[pair[j]]) - j
            for x in chain:
                out[x] = out[j]  # UNSET where the chain ends at an unpaired node
    forest += [eid for eid, lab in zip(pair, out) if eid >= 0 and lab]
    return SpanningForest(frozenset(forest), Labeling(tuple(out), "nodes"))


def forest_weight(g: WeightedGraph, forest: SpanningForest) -> int:
    ew = g.require_edge_weights()
    return sum(ew[eid] for eid in forest.edges)


# ---------------------------------------------------------------------------
# label propagation along minimal tracks
# ---------------------------------------------------------------------------


def _propagate(g: WeightedGraph, k: int, rng, keep_zones: bool) -> Labeling:
    # Pruning keeps the minima and the endpoints of every minimal track
    # edge, so the tracks of g itself serve: no pruned graph is built.
    labels = list(minima_of_flooding(g).values)
    _, rows = _upstream(g, k)  # the nodes whose minimal tracks start toward each node

    # Each wavefront takes its labels from the previous one: a newly
    # reached node folds its sources, the previous-wavefront nodes its
    # minimal tracks reach, into one value (module docstring), or under rng
    # lists them in increasing id order.  A node is reached once it holds
    # a label (the minima's, a propagated one or ZONE).
    frontier = [i for i, lab in enumerate(labels) if lab != UNSET]
    while frontier:
        got: dict = {}
        for f in frontier:
            lab = labels[f]
            for i in rows[f]:
                if labels[i] == UNSET:
                    if rng:
                        got.setdefault(i, []).append(f)
                    elif got.setdefault(i, lab) != lab:
                        got[i] = ZONE if keep_zones else min(got[i], lab)
        frontier = sorted(got)
        for i in frontier:
            if rng:  # one label draws nothing from rng
                src = got[i]
                got[i] = labels[rng.choice(src) if len({labels[j] for j in src}) > 1 else src[0]]
            labels[i] = got[i]
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
