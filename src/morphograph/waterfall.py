"""Waterfall hierarchy by iterated forest contraction.

Each level segments the current graph into drainage basins, records the
forest, and contracts every tree into one node of the next region
adjacency graph; contracted edges keep their weights (minimum among
parallels) and remember which base edge they came from.  Node weights of
the contracted graph come from the min of adjacent edges, i.e. each
basin is flooded up to its lowest pass point, which is what removes
minima between levels.  The loop ends when a single region remains; the
union of all recorded forests is then a minimum spanning tree of the
base graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Union

from .errors import DisconnectedInput, IncompleteHierarchy
from .flooding import _from_edges, _pair_nodes, as_flooding, parse_tie
from .graphs import Labeling, WeightedGraph, collapse
from .steepness import _kept_pairs
from .watershed import _drain


@dataclass(frozen=True)
class HierarchyLevel:
    forest: frozenset[int]     # base edge ids added at this level
    partition: Labeling        # base nodes -> region label at this level
    region_count: int
    contracted: WeightedGraph  # region adjacency graph after this level


@dataclass(frozen=True)
class Hierarchy:
    base: WeightedGraph        # full edge-weighted working graph (incl. dummies)
    levels: tuple[HierarchyLevel, ...]

    @property
    def complete(self) -> bool:
        return bool(self.levels) and self.levels[-1].contracted.num_nodes == 1


def build_hierarchy(
    g: WeightedGraph, k: int = 2, tie: Union[str, random.Random, None] = "min-label"
) -> Hierarchy:
    """Nested watershed partitions down to a single region.

    Level m prunes the current flooding graph to steepness ``k``, takes a
    drainage forest, then contracts it.  Partitions are reported over the
    base nodes and coarsen strictly from level to level; a base of 0 or 1
    node takes one level too, its contraction without node weights.
    """
    rng = parse_tie(tie)
    base = g if g.has_edge_weights and not g.has_node_weights else as_flooding(g)
    levels, cur_full = [], base
    to_region = list(range(base.num_nodes))   # base node -> current node
    to_base_edge = list(range(len(base.edges)))  # current edge -> base edge

    while True:
        cur_flood, kept = _from_edges(cur_full)  # kept: cur_flood edge -> cur_full edge
        # the drainage forest of the depth-k pruned graph, which is not built
        forest = _drain(cur_flood, _pair_nodes(cur_flood, *_kept_pairs(cur_flood, k), rng))
        base_ids = frozenset([to_base_edge[kept[eid]] for eid in forest.edges])
        part = Labeling(tuple(map(forest.labels.values.__getitem__, to_region)), "nodes")
        contraction = collapse(cur_full, forest.labels.values)  # one node per tree
        levels.append(HierarchyLevel(base_ids, part, forest.num_trees, contraction.graph))
        if contraction.graph.num_nodes <= 1:
            return Hierarchy(base, tuple(levels))
        if not contraction.graph.edges:  # the base graph was disconnected
            raise DisconnectedInput("waterfall needs a connected graph")
        to_region = list(map(contraction.node_map.__getitem__, to_region))
        to_base_edge = list(map(to_base_edge.__getitem__, contraction.edge_origins))
        cur_full = contraction.graph


def merge_levels(h: Hierarchy) -> tuple[int, ...]:
    """Per base edge, the last level at which its two sides are separated.

    Edges inside a level-1 region get 0; an edge separating regions that
    merge when level m+1 is built gets m.  Along the emergent tree these
    values give an ultrametric on the level-1 regions.
    """
    parts = [level.partition.values for level in h.levels]
    out = []
    for u, v in h.base.edges:
        lvl = 0
        for labels in parts:  # partitions coarsen: once joined, always joined
            if labels[u] == labels[v]:
                break
            lvl += 1
        out.append(lvl)
    return tuple(out)


def emergent_tree(h: Hierarchy) -> frozenset[int]:
    """Union of all level forests: a minimum spanning tree of the base graph."""
    if not h.complete:
        raise IncompleteHierarchy("hierarchy did not reach a single region")
    edges: set[int] = set()
    for level in h.levels:
        edges.update(level.forest)
    return frozenset(edges)
