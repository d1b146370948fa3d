"""Graph data model and structural operators.

Nodes are dense integers ``0..N-1``; edges are unordered pairs stored as
sorted tuples.  Weights are optional but uniform per carrier: either every
node (edge) is weighted or none is, matching the four weighting cases
(-,*), (-,n), (e,*), (e,n).  Graphs are immutable after construction and
every operator returns a new graph, so instances are safe to share.

Dummy nodes introduced by :func:`expand_isolated_minima` are flagged in
``dummies`` so exporters can hide them; they behave like ordinary nodes
everywhere else.

A graph is its edge list: the operators here run as passes over
``edges``, and no per-node rows are kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lt
from typing import Iterable, Optional, Sequence

from .errors import MissingWeights
from .weights import TOP

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
        """The greatest label, 0 when none is positive: ZONE and UNSET sit below 1."""
        return max(0, max(self.values, default=0))

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
    """Nodes ``0..num_nodes-1``, sorted edge pairs and optional weights."""

    num_nodes: int
    edges: tuple[tuple[int, int], ...] = ()
    node_weights: Optional[tuple[int, ...]] = None
    edge_weights: Optional[tuple[int, ...]] = None
    dummies: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.num_nodes < 0:
            raise ValueError(f"negative num_nodes {self.num_nodes}")
        # an edge already sorted keeps its tuple
        edges = tuple([(v, u) if u > v else e if type(e) is tuple else (u, v)
                       for e in self.edges for u, v in (e,)])
        object.__setattr__(self, "edges", edges)
        if self.node_weights is not None:
            object.__setattr__(self, "node_weights", tuple(self.node_weights))
        if self.edge_weights is not None:
            object.__setattr__(self, "edge_weights", tuple(self.edge_weights))
        object.__setattr__(self, "dummies", frozenset(self.dummies))
        # checked in bulk; only a failing check walks the edges to name the
        # first offending one
        us, vs = zip(*edges) if edges else ((), ())
        if (len(set(edges)) < len(edges) or not all(map(lt, us, vs))
                or min(us, default=0) < 0 or max(vs, default=-1) >= self.num_nodes):
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
    def _derive(cls, num_nodes, edges, node_weights, edge_weights, dummies) -> "WeightedGraph":
        """Constructor for edges known normalised, in range and distinct: only
        weight lengths are checked, and nothing is cached."""
        g = object.__new__(cls)
        vars(g).update(num_nodes=num_nodes, edges=edges, node_weights=node_weights,
                       edge_weights=edge_weights, dummies=dummies)
        g._check_weights()
        return g

    # -- basic accessors ---------------------------------------------------

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
        """Copy with one or both weight fields replaced; it keeps the node
        zone walk if the node weights stay."""
        g = WeightedGraph._derive(
            self.num_nodes,
            self.edges,
            tuple(node_weights) if node_weights is not None else self.node_weights,
            tuple(edge_weights) if edge_weights is not None else self.edge_weights,
            self.dummies,
        )
        if node_weights is None and "_node_walk" in vars(self):  # same node zones
            vars(g)["_node_walk"] = vars(self)["_node_walk"]
        return g

    def partial(self, keep: Iterable[int]) -> "WeightedGraph":
        """Partial graph: same nodes, only the edges in ``keep`` (edge ids)."""
        kept = _edge_ids(self, keep)
        ew = self.edge_weights
        return WeightedGraph._derive(
            self.num_nodes, tuple([self.edges[i] for i in kept]), self.node_weights,
            None if ew is None else tuple([ew[i] for i in kept]), self.dummies)


# ---------------------------------------------------------------------------
# connectivity and flat zones
# ---------------------------------------------------------------------------


def connected_components(g: WeightedGraph, restrict: Optional[Iterable[int]] = None) -> Labeling:
    """Label nodes by connected component within the edge set ``restrict``.

    ``restrict`` is a set of edge ids (default: all edges).  Labels are
    consecutive from 1 in order of the smallest node id per component;
    isolated nodes become singleton components.
    """
    parent = list(range(g.num_nodes))
    for eid in range(len(g.edges)) if restrict is None else _edge_ids(g, restrict):
        _union(parent, *g.edges[eid])
    return Labeling(tuple(_set_labels(parent)), "nodes")


def _edge_ids(g: WeightedGraph, ids: Iterable[int]) -> list[int]:
    """The distinct ``ids`` in ascending order, refused unless each is an
    edge id of ``g``."""
    kept = sorted(set(ids))
    if kept and (kept[0] < 0 or kept[-1] >= len(g.edges)):
        raise IndexError("edge id out of range")
    return kept


def _union(parent: list[int], a: int, b: int) -> None:
    """Join the sets of ``a`` and ``b``; each root is its set's smallest
    id, so every parent link points to a smaller id."""
    while parent[a] != a:
        parent[a] = a = parent[parent[a]]
    while parent[b] != b:
        parent[b] = b = parent[parent[b]]
    if a < b:
        parent[b] = a
    elif b < a:
        parent[a] = b


def _set_labels(parent: list[int]) -> list[int]:
    """Labels from 1 in order of each set's smallest id: a parent, being
    smaller, is labeled before its children."""
    labels, k = [UNSET] * len(parent), 0
    for x, p in enumerate(parent):
        k += p == x
        labels[x] = k if p == x else labels[p]
    return labels


def _zone_walk(g: WeightedGraph, mode: str) -> tuple[list[int], list[bool]]:
    """Flat zones of the chosen carrier, by one union-find pass over the edges.

    Returns the per-carrier zone labels (consecutive from 1, in order of
    the smallest id per zone) and, per zone label, whether no neighbor of
    the zone lies strictly lower (a regional minimum).
    """
    if mode == "nodes":
        w = g.require_node_weights()
        parent, low = list(range(g.num_nodes)), [True] * g.num_nodes
        for u, v in g.edges:
            if w[u] == w[v]:
                _union(parent, u, v)
            elif w[u] < w[v]:
                low[v] = False
            else:
                low[u] = False
    elif mode == "edges":
        w = g.require_edge_weights()
        parent, lo = list(range(len(w))), [TOP] * g.num_nodes
        first: dict[tuple[int, int], int] = {}  # (node, weight) -> an edge there
        for eid, (ends, x) in enumerate(zip(g.edges, w)):
            for n in ends:
                if x < lo[n]:
                    lo[n] = x
                _union(parent, first.setdefault((n, x), eid), eid)
        low = [x <= lo[u] and x <= lo[v] for (u, v), x in zip(g.edges, w)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    labels = _set_labels(parent)
    lowest = [True] * max(labels, default=0)
    for k, x in zip(labels, low):
        lowest[k - 1] &= x
    return labels, lowest


def _node_walk(g: WeightedGraph) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """``_zone_walk(g, "nodes")`` as tuples, memoised on ``g``; derived graphs may inherit it."""
    if "_node_walk" not in vars(g):
        vars(g)["_node_walk"] = tuple(map(tuple, _zone_walk(g, "nodes")))
    return vars(g)["_node_walk"]


def flat_zones(g: WeightedGraph, mode: str) -> Labeling:
    """Maximal connected pieces of uniform altitude on the chosen carrier.

    mode="nodes": zones of nodes joined by paths of equal node weight.
    mode="edges": zones of edges joined by chains (shared endpoints) of
    equal edge weight; the labeling is per edge id.
    """
    labels, _ = _node_walk(g) if mode == "nodes" else _zone_walk(g, mode)
    return Labeling(tuple(labels), mode)


def regional_minima(g: WeightedGraph, mode: str) -> list[frozenset[int]]:
    """Flat zones whose surroundings are strictly higher.

    mode="edges": zones of edges whose adjacent outside edges (sharing a
    node with the zone) are all higher.  mode="nodes": zones of nodes
    whose neighboring nodes are all higher.  Returned sets are ordered by
    smallest contained id.
    """
    labels, lowest = _node_walk(g) if mode == "nodes" else _zone_walk(g, mode)
    members: dict[int, list[int]] = {k: [] for k, low in enumerate(lowest, 1) if low}
    for x, k in enumerate(labels):
        if k in members:
            members[k].append(x)
    return [frozenset(m) for m in members.values()]


def minima_span(minima: Sequence[frozenset[int]], g: WeightedGraph) -> list[frozenset[int]]:
    """Node sets spanned by edge-carrier regional minima (sets of edge ids)."""
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
    return collapse(g, connected_components(g, h).values)


def collapse(g: WeightedGraph, labels: Sequence[int]) -> Contraction:
    """Merge the nodes that share a label (one label per node) into one node;
    new ids are dense, ordered by each group's smallest old id, and edges,
    weights and dummies follow the rules of :func:`contract`.  A crossing
    edge is keyed by one int, ``cu * count + cv`` with ``cu < cv``."""
    if len(labels) != g.num_nodes:
        raise ValueError("collapse needs one label per node")
    new_id: dict[int, int] = {}
    node_map = tuple([new_id.setdefault(lab, len(new_id)) for lab in labels])
    count = len(new_id)
    ew = g.edge_weights
    w = bytes(len(g.edges)) if ew is None else ew  # unweighted: all ties
    best: dict[int, int] = {}  # key -> old eid
    for eid, (u, v) in enumerate(g.edges):
        cu, cv = node_map[u], node_map[v]
        if cu != cv:
            key = cu * count + cv if cu < cv else cv * count + cu
            if w[eid] < w[best.setdefault(key, eid)]:  # ids rise: the least (w, eid) stays
                best[key] = eid
    keys = sorted(best)  # as the (cu, cv) pairs sort
    origins = tuple([best[key] for key in keys])
    new_ew = None if ew is None else tuple([ew[eid] for eid in origins])
    new_dummies = frozenset(range(count)).difference(  # new nodes whose old nodes all are dummies
        k for i, k in enumerate(node_map) if i not in g.dummies) if g.dummies else frozenset()
    ids = list(new_id.values())  # node_map's ints, so the edges share them as the nodes do
    new_edges = tuple([(ids[key // count], ids[key % count]) for key in keys])
    return Contraction(WeightedGraph._derive(count, new_edges, None, new_ew, new_dummies),
                       node_map, origins)


def expand_isolated_minima(g: WeightedGraph) -> WeightedGraph:
    """Attach a dummy node of equal weight to every isolated regional minimum.

    The result has no single-node regional minimum.  Dummies get fresh ids
    at the end of the range and are flagged in ``dummies``.
    """
    nw = g.require_node_weights()
    singles = [next(iter(m)) for m in regional_minima(g, "nodes") if len(m) == 1]
    if not singles:
        return g
    dummies, ew = range(g.num_nodes, g.num_nodes + len(singles)), g.edge_weights
    twins = tuple(nw[i] for i in singles)  # each dummy's weight and edge weight
    gx = WeightedGraph._derive(
        dummies.stop, g.edges + tuple(zip(singles, dummies)), nw + twins,
        None if ew is None else ew + twins, g.dummies | frozenset(dummies),
    )
    # a twin joins its single's zone, whose smallest id and lowness it keeps
    zone_of, lowest = _node_walk(g)
    vars(gx)["_node_walk"] = (zone_of + tuple([zone_of[i] for i in singles]), lowest)
    return gx


def lowest_edge_filter(g: WeightedGraph, mode: str) -> frozenset[int]:
    """Union over nodes of their kept adjacent edges.

    mode="lowest_edges": per node keep its minimum-weight adjacent edges.
    mode="lowest_nodes": per node keep the edges toward its lowest
    neighboring nodes.  Every non-isolated node retains at least one edge.
    """
    if mode == "lowest_edges":
        ew = g.require_edge_weights()
        seen = list(zip(ew, ew))  # per edge, the values its ends u, v compare
    elif mode == "lowest_nodes":
        nw = g.require_node_weights()
        seen = [(nw[v], nw[u]) for u, v in g.edges]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    lo = [TOP] * g.num_nodes
    for (u, v), (a, b) in zip(g.edges, seen):
        if a < lo[u]:
            lo[u] = a
        if b < lo[v]:
            lo[v] = b
    return frozenset([eid for eid, ((u, v), (a, b)) in enumerate(zip(g.edges, seen))
                      if a == lo[u] or b == lo[v]])
