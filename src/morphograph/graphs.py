"""Graph data model and structural operators.

Nodes are dense integers ``0..N-1``; edges are unordered pairs stored as
sorted tuples.  Weights are optional but uniform per carrier: either every
node (edge) is weighted or none is, matching the four weighting cases
(-,*), (-,n), (e,*), (e,n).  Graphs are immutable after construction and
every operator returns a new graph, so instances are safe to share.

Dummy nodes introduced by :func:`expand_isolated_minima` are flagged in
``dummies`` so exporters can hide them; they behave like ordinary nodes
everywhere else.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import MissingWeights

UNSET = 0
ZONE = -1


@dataclass(frozen=True)
class Labeling:
    """Per-carrier labels: positive ints, ZONE (-1) or UNSET (0).

    Label values are consecutive from 1, ordered by the smallest carrier
    id they contain (all constructors in this package guarantee that).
    """

    values: tuple[int, ...]
    carrier: str = "nodes"

    @property
    def num_labels(self) -> int:
        return max((v for v in self.values if v > 0), default=0)

    def label_sets(self) -> dict[int, frozenset[int]]:
        """Map each label (including ZONE if present) to its member ids."""
        out: dict[int, set[int]] = {}
        for i, v in enumerate(self.values):
            if v != UNSET:
                out.setdefault(v, set()).add(i)
        return {k: frozenset(s) for k, s in out.items()}

    def zone_nodes(self) -> frozenset[int]:
        return frozenset(i for i, v in enumerate(self.values) if v == ZONE)


@dataclass(frozen=True)
class WeightedGraph:
    num_nodes: int
    edges: tuple[tuple[int, int], ...] = ()
    node_weights: Optional[tuple[int, ...]] = None
    edge_weights: Optional[tuple[int, ...]] = None
    dummies: frozenset[int] = frozenset()

    def __post_init__(self):
        edges = tuple(
            (u, v) if u < v else (v, u) for (u, v) in self.edges
        )
        object.__setattr__(self, "edges", edges)
        if self.node_weights is not None:
            object.__setattr__(self, "node_weights", tuple(self.node_weights))
        if self.edge_weights is not None:
            object.__setattr__(self, "edge_weights", tuple(self.edge_weights))
        object.__setattr__(self, "dummies", frozenset(self.dummies))
        seen = set()
        for (u, v) in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise ValueError(f"edge ({u},{v}) leaves node range")
            if (u, v) in seen:
                raise ValueError(f"parallel edge ({u},{v})")
            seen.add((u, v))
        self._check_weights()
        if any(not 0 <= d < self.num_nodes for d in self.dummies):
            raise ValueError("dummy flag outside node range")

    def _check_weights(self) -> None:
        if self.node_weights is not None and len(self.node_weights) != self.num_nodes:
            raise ValueError("node_weights length != num_nodes")
        if self.edge_weights is not None and len(self.edge_weights) != len(self.edges):
            raise ValueError("edge_weights length != num edges")

    @classmethod
    def _derive(cls, num_nodes, edges, node_weights, edge_weights, dummies,
                adjacency=None) -> "WeightedGraph":
        """Constructor for edges known normalised, in range and distinct
        (and their sorted ``adjacency``, if given): only weight lengths are
        checked, and nothing else is cached on the new graph."""
        g = object.__new__(cls)
        vars(g).update(num_nodes=num_nodes, edges=edges, node_weights=node_weights,
                       edge_weights=edge_weights, dummies=dummies)
        if adjacency is not None:
            vars(g)["adjacency"] = adjacency
        g._check_weights()
        return g

    # -- basic accessors ---------------------------------------------------

    @cached_property
    def _edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per node, sorted tuple of (neighbor, edge_id)."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.num_nodes)]
        for eid, (u, v) in enumerate(self.edges):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        return tuple(tuple(sorted(a)) for a in adj)

    def edge_id(self, u: int, v: int) -> int:
        return self._edge_index[(u, v) if u < v else (v, u)]

    def neighbors(self, i: int) -> tuple[tuple[int, int], ...]:
        return self.adjacency[i]

    @property
    def has_node_weights(self) -> bool:
        return self.node_weights is not None

    @property
    def has_edge_weights(self) -> bool:
        return self.edge_weights is not None

    def require_node_weights(self) -> tuple[int, ...]:
        if self.node_weights is None:
            raise MissingWeights("graph has no node weights")
        return self.node_weights

    def require_edge_weights(self) -> tuple[int, ...]:
        if self.edge_weights is None:
            raise MissingWeights("graph has no edge weights")
        return self.edge_weights

    # -- derived graphs ----------------------------------------------------

    def with_weights(self, node_weights=None, edge_weights=None) -> "WeightedGraph":
        """Copy with one or both weight fields replaced; shares the topology."""
        g = WeightedGraph._derive(
            self.num_nodes,
            self.edges,
            tuple(node_weights) if node_weights is not None else self.node_weights,
            tuple(edge_weights) if edge_weights is not None else self.edge_weights,
            self.dummies,
            self.adjacency,
        )
        if "_edge_index" in vars(self):
            vars(g)["_edge_index"] = self._edge_index
        return g

    def partial(self, keep: Iterable[int]) -> "WeightedGraph":
        """Partial graph: same nodes, only the edges in ``keep`` (edge ids)."""
        kept = sorted(set(keep))
        if kept and (kept[0] < 0 or kept[-1] >= len(self.edges)):
            raise IndexError("edge id out of range")
        new_id = [-1] * len(self.edges)
        for k, eid in enumerate(kept):
            new_id[eid] = k
        # old ids map to new ids in the same order, so each filtered
        # adjacency row stays sorted
        adjacency = tuple(
            tuple([(j, new_id[eid]) for j, eid in row if new_id[eid] >= 0])
            for row in self.adjacency
        )
        edges = tuple(self.edges[i] for i in kept)
        ew = None
        if self.edge_weights is not None:
            ew = tuple(self.edge_weights[i] for i in kept)
        return WeightedGraph._derive(
            self.num_nodes, edges, self.node_weights, ew, self.dummies, adjacency
        )


# ---------------------------------------------------------------------------
# connectivity and flat zones
# ---------------------------------------------------------------------------


def connected_components(g: WeightedGraph, restrict: Optional[Iterable[int]] = None) -> Labeling:
    """Label nodes by connected component within the edge set ``restrict``.

    ``restrict`` is a set of edge ids (default: all edges).  Labels are
    consecutive from 1 in order of the smallest node id per component;
    isolated nodes become singleton components.
    """
    allowed = set(range(len(g.edges))) if restrict is None else set(restrict)
    adj: list[list[int]] = [[] for _ in range(g.num_nodes)]
    for eid in allowed:
        u, v = g.edges[eid]
        adj[u].append(v)
        adj[v].append(u)
    labels = [UNSET] * g.num_nodes
    nxt = 1
    for start in range(g.num_nodes):
        if labels[start] != UNSET:
            continue
        labels[start] = nxt
        queue = deque([start])
        while queue:
            i = queue.popleft()
            for j in adj[i]:
                if labels[j] == UNSET:
                    labels[j] = nxt
                    queue.append(j)
        nxt += 1
    return Labeling(tuple(labels), "nodes")


def _zone_walk(g: WeightedGraph, mode: str) -> tuple[list[int], list[tuple[list[int], bool]]]:
    """Visit each flat zone of the chosen carrier once, breadth-first.

    Returns the per-carrier zone labels (consecutive from 1, in order of
    the smallest id per zone) and, per zone, its member ids and whether
    no neighbor of the zone lies strictly lower (a regional minimum).
    """
    if mode == "nodes":
        w, size, pick = g.require_node_weights(), g.num_nodes, 0
    elif mode == "edges":
        w, size, pick = g.require_edge_weights(), len(g.edges), 1
    else:
        raise ValueError(f"unknown mode {mode!r}")
    adj = g.adjacency
    # the nodes whose adjacency holds each member's neighbors
    ends = g.edges if pick else [(i,) for i in range(size)]
    labels = [UNSET] * size
    # stamp[n] == k once node n's adjacency was scanned for zone k
    stamp = [UNSET] * g.num_nodes
    zones: list[tuple[list[int], bool]] = []
    for start in range(size):
        if labels[start] != UNSET:
            continue
        k, level = len(zones) + 1, w[start]
        labels[start] = k
        members, lowest = [start], True
        for x in members:  # grows while it is walked
            for n in ends[x]:
                if stamp[n] == k:
                    continue
                stamp[n] = k
                for entry in adj[n]:
                    y = entry[pick]  # entry = (neighbor node, edge id)
                    if w[y] == level:
                        if labels[y] == UNSET:
                            labels[y] = k
                            members.append(y)
                    elif w[y] < level:
                        lowest = False
        zones.append((members, lowest))
    return labels, zones


def flat_zones(g: WeightedGraph, mode: str) -> Labeling:
    """Maximal connected pieces of uniform altitude on the chosen carrier.

    mode="nodes": zones of nodes joined by paths of equal node weight.
    mode="edges": zones of edges joined by chains (shared endpoints) of
    equal edge weight; the labeling is per edge id.
    """
    labels, _ = _zone_walk(g, mode)
    return Labeling(tuple(labels), mode)


def regional_minima(g: WeightedGraph, mode: str) -> list[frozenset[int]]:
    """Flat zones whose surroundings are strictly higher.

    mode="edges": zones of edges whose adjacent outside edges (sharing a
    node with the zone) are all higher.  mode="nodes": zones of nodes
    whose neighboring nodes are all higher.  Returned sets are ordered by
    smallest contained id.
    """
    _, zones = _zone_walk(g, mode)
    return [frozenset(members) for members, lowest in zones if lowest]


def minima_span(minima: Sequence[frozenset[int]], g: WeightedGraph, mode: str) -> list[frozenset[int]]:
    """Node sets spanned by regional minima (identity for node mode)."""
    if mode == "nodes":
        return [frozenset(m) for m in minima]
    return [frozenset(n for eid in m for n in g.edges[eid]) for m in minima]


# ---------------------------------------------------------------------------
# contraction / expansion / edge filters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Contraction:
    graph: WeightedGraph
    node_map: tuple[int, ...]      # old node id -> new node id
    edge_origins: tuple[int, ...]  # new edge id -> old edge id kept as representative


def contract(g: WeightedGraph, h: Iterable[int]) -> Contraction:
    """Contract every edge in ``h`` (edge ids); each component becomes one node.

    Surviving inter-component edges keep their weights; self-loops are
    dropped and parallel edges collapse to the minimum weight (smallest
    original edge id on ties).  New ids are dense, ordered by the smallest
    constituent old id.  Node weights do not survive contraction: the
    result is an edge-weighted (or unweighted) graph.
    """
    comp = connected_components(g, h)
    reps: dict[int, int] = {}
    for i, lab in enumerate(comp.values):
        reps.setdefault(lab, i)  # first node seen = smallest id
    order = sorted(reps.values())
    new_id = {rep: k for k, rep in enumerate(order)}
    node_map = tuple(new_id[reps[comp.values[i]]] for i in range(g.num_nodes))

    ew = g.edge_weights
    best: dict[tuple[int, int], tuple[int, int]] = {}  # (u', v') -> (weight key, old eid)
    for eid, (u, v) in enumerate(g.edges):
        cu, cv = node_map[u], node_map[v]
        if cu == cv:
            continue
        key = (cu, cv) if cu < cv else (cv, cu)
        w = ew[eid] if ew is not None else 0
        if key not in best or (w, eid) < best[key]:
            best[key] = (w, eid)
    pairs = sorted(best)
    new_edges = tuple(pairs)
    origins = tuple(best[p][1] for p in pairs)
    new_ew = tuple(best[p][0] for p in pairs) if ew is not None else None

    members: dict[int, list[int]] = {}
    for i in range(g.num_nodes):
        members.setdefault(node_map[i], []).append(i)
    new_dummies = frozenset(
        k for k, ms in members.items() if all(m in g.dummies for m in ms)
    )
    graph = WeightedGraph._derive(len(order), new_edges, None, new_ew, new_dummies)
    return Contraction(graph, node_map, origins)


def expand_isolated_minima(g: WeightedGraph) -> WeightedGraph:
    """Attach a dummy node of equal weight to every isolated regional minimum.

    The result has no single-node regional minimum.  Dummies get fresh ids
    at the end of the range and are flagged in ``dummies``.
    """
    nw = g.require_node_weights()
    singles = [next(iter(m)) for m in regional_minima(g, "nodes") if len(m) == 1]
    if not singles:
        return g
    n, e = g.num_nodes, len(g.edges)
    new_nw = list(nw)
    new_edges = list(g.edges)
    new_ew = list(g.edge_weights) if g.edge_weights is not None else None
    adjacency = list(g.adjacency)
    for i in singles:
        new_nw.append(nw[i])
        new_edges.append((i, n))
        if new_ew is not None:
            new_ew.append(nw[i])
        # the dummy's id exceeds every neighbor of i, so the row stays sorted
        adjacency[i] += ((n, e),)
        adjacency.append(((i, e),))
        n, e = n + 1, e + 1
    return WeightedGraph._derive(
        n, tuple(new_edges), tuple(new_nw),
        tuple(new_ew) if new_ew is not None else None,
        g.dummies | frozenset(range(g.num_nodes, n)), tuple(adjacency),
    )


def lowest_edge_filter(g: WeightedGraph, mode: str) -> frozenset[int]:
    """Union over nodes of their kept adjacent edges.

    mode="lowest_edges": per node keep its minimum-weight adjacent edges.
    mode="lowest_nodes": per node keep the edges toward its lowest
    neighboring nodes.  Every non-isolated node retains at least one edge.
    """
    kept: set[int] = set()
    if mode == "lowest_edges":
        ew = g.require_edge_weights()
        for i in range(g.num_nodes):
            adj = g.neighbors(i)
            if not adj:
                continue
            lo = min(ew[eid] for _, eid in adj)
            kept.update(eid for _, eid in adj if ew[eid] == lo)
        return frozenset(kept)
    if mode == "lowest_nodes":
        nw = g.require_node_weights()
        for i in range(g.num_nodes):
            adj = g.neighbors(i)
            if not adj:
                continue
            lo = min(nw[j] for j, _ in adj)
            kept.update(eid for j, eid in adj if nw[j] == lo)
        return frozenset(kept)
    raise ValueError(f"unknown mode {mode!r}")
