"""Shared fixtures, random graph generators and brute-force oracles."""

import random
from collections import deque

import pytest

from morphograph import WeightedGraph, flooding_from_edges, flooding_from_nodes
from morphograph.flooding import minima_of_flooding, minima_sets
from morphograph.formats import image_to_graph, write_pgm
from morphograph.graphs import UNSET, Labeling, _node_walk, connected_components
from morphograph.lexalgebra import incidence_matrix
from morphograph.watershed import SpanningForest


# -- fixed fixtures ----------------------------------------------------------

PATH4_EDGES = ((0, 1), (1, 2), (2, 3))


@pytest.fixture
def path4():
    """4 nodes a-b-c-d with edge weights ab=1, bc=3, cd=2."""
    return WeightedGraph(4, PATH4_EDGES, None, (1, 3, 2))


@pytest.fixture
def path4_flooding(path4):
    return flooding_from_edges(path4)


@pytest.fixture
def five_path():
    """5 nodes with the symmetric valley profile [0,1,2,1,0]."""
    return WeightedGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4)), (0, 1, 2, 1, 0), None)


@pytest.fixture
def five_path_flooding(five_path):
    return flooding_from_nodes(five_path)


@pytest.fixture
def triangle():
    return WeightedGraph(3, ((0, 1), (1, 2), (0, 2)))


# -- random generators -------------------------------------------------------


def random_edge_weighted(rng, max_nodes=10, w_max=6, edge_prob=0.4, connected=False):
    n = rng.randint(2, max_nodes)
    edges = set()
    if connected:
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            u, v = order[i], rng.choice(order[:i])
            edges.add((u, v) if u < v else (v, u))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                edges.add((u, v))
    if not connected:
        # leave no isolated nodes so edge/node minima line up exactly
        for u in range(n):
            if not any(u in e for e in edges):
                v = rng.randrange(n - 1)
                v = v if v < u else v + 1
                edges.add((u, v) if u < v else (v, u))
    edges = tuple(sorted(edges))
    return WeightedGraph(n, edges, None, tuple(rng.randint(0, w_max) for _ in edges))


def random_node_weighted(rng, max_nodes=10, w_max=9, edge_prob=0.4):
    n = rng.randint(1, max_nodes)
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                edges.add((u, v))
    return WeightedGraph(
        n, tuple(sorted(edges)), tuple(rng.randint(0, w_max) for _ in range(n)), None
    )


def quantized_pixel_floodings(rng, count):
    """Tie-heavy floodings: ``count`` random 2-9 px images at 4 gray levels,
    4- and then 8-connected."""
    for conn in (4, 8):
        for _ in range(count):
            w, h = rng.randint(2, 9), rng.randint(2, 9)
            pixels = [rng.randrange(4) for _ in range(w * h)]
            yield flooding_from_nodes(image_to_graph(write_pgm(w, h, pixels, 3), conn))


def random_flooding(rng, max_nodes=10, w_max=6, connected=False):
    """A random flooding graph, from edge or node weights at even odds.

    ``connected=True`` connects the graph before it is flooded; on the
    edge-weighted branch ``flooding_from_edges`` keeps only each node's
    lowest edges and may cut it apart again.
    """
    if rng.random() < 0.5:
        return flooding_from_edges(
            random_edge_weighted(rng, max_nodes, w_max, connected=connected)
        )
    g = random_node_weighted(rng, max_nodes, w_max)
    if connected:
        g = random_edge_weighted(rng, max_nodes, w_max, connected=True).with_weights(
            node_weights=None
        )
        g = WeightedGraph(
            g.num_nodes, g.edges,
            tuple(rng.randint(0, w_max) for _ in range(g.num_nodes)), None,
        )
    return flooding_from_nodes(g)


# -- oracles -----------------------------------------------------------------


def rows(g):
    """Per node, the sorted tuple of (neighbor, edge id), built from the
    edge list on each call."""
    adj = [[] for _ in range(g.num_nodes)]
    for eid, (u, v) in enumerate(g.edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    return tuple(tuple(sorted(a)) for a in adj)


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def kruskal_mst(g):
    """(weight, edge ids) of a minimum spanning tree/forest of g."""
    uf = UnionFind(g.num_nodes)
    weight, picked = 0, []
    for w, eid in sorted((g.edge_weights[e], e) for e in range(len(g.edges))):
        u, v = g.edges[eid]
        if uf.union(u, v):
            weight += w
            picked.append(eid)
    return weight, picked


def constrained_msf_weight(fg):
    """Minimum spanning forest with exactly one regional minimum per tree."""
    sets = minima_sets(minima_of_flooding(fg))
    nw = fg.node_weights
    uf = UnionFind(fg.num_nodes)
    weight = 0
    has_min = [False] * fg.num_nodes
    for m in sets:
        members = sorted(m)
        for other in members[1:]:
            uf.union(members[0], other)
        weight += (len(m) - 1) * nw[members[0]]
        has_min[uf.find(members[0])] = True
    for w, eid in sorted((fg.edge_weights[e], e) for e in range(len(fg.edges))):
        u, v = fg.edges[eid]
        ru, rv = uf.find(u), uf.find(v)
        if ru == rv or (has_min[ru] and has_min[rv]):
            continue
        uf.union(u, v)
        has_min[uf.find(u)] = has_min[ru] or has_min[rv]
        weight += w
    return weight


def adjacency_assign_pairs(g, rng=None):
    """``assign_pairs`` as it ran before it read the flooding pairs, kept as
    the oracle of ``flooding._pair_nodes``: it walks the graph's flat zones
    and adjacency rows, and grows each plateau's breadth-first tree from
    its exits, plateau by plateau in zone-label order."""
    nw = g.require_node_weights()
    g.require_edge_weights()
    zone_of, lowest = _node_walk(g)
    plateaus = {z: [] for z, low in enumerate(lowest, 1) if not low}
    for i, z in enumerate(zone_of):
        if z in plateaus:
            plateaus[z].append(i)
    adj = rows(g)
    pairs = {}
    for z, zone in plateaus.items():
        level, frontier = nw[zone[0]], []
        for s in zone:
            lower = [(t, eid) for t, eid in adj[s] if nw[t] < level]
            if lower:
                pairs[s] = rng.choice(lower)[1] if rng else lower[0][1]
                frontier.append(s)
        while frontier:
            reachable = {}
            for p in frontier:
                for j, eid in adj[p]:
                    if zone_of[j] == z and j not in pairs:
                        reachable.setdefault(j, []).append(eid)
            frontier = sorted(reachable)
            for j in frontier:
                cands = sorted(reachable[j])
                pairs[j] = rng.choice(cands) if rng else cands[0]
    return pairs


def adjacency_drainage_forest(g, rng=None):
    """``drainage_forest`` as it ran before it read the flooding pairs, kept
    as the oracle of ``watershed._drain``: the pairs of
    ``adjacency_assign_pairs``, one breadth-first search over the adjacency
    rows spanning every minimum, and ``connected_components`` to name the
    trees.  Run on ``prune_to_steepness(g, k)``, it is the forest each
    waterfall level takes."""
    labels = list(minima_of_flooding(g).values)
    edges = set(adjacency_assign_pairs(g, rng).values())
    adj, seen = rows(g), [False] * g.num_nodes
    for start, lab in enumerate(labels):
        if lab == UNSET or seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        while queue:
            i = queue.popleft()
            for j, eid in adj[i]:
                if labels[j] != UNSET and not seen[j]:
                    seen[j] = True
                    edges.add(eid)
                    queue.append(j)
    tree = connected_components(g, edges).values
    label_of = {tree[i]: lab for i, lab in enumerate(labels) if lab != UNSET}
    labels = [label_of.get(t, UNSET) for t in tree]
    return SpanningForest(frozenset(edges), Labeling(tuple(labels), "nodes"))


def flooding_distance_matrix(g):
    """Pairwise ultrametric flooding distance: min over paths of max edge.

    The depth-1 instantiation of the path algebra where chains need not
    descend (the lexicographic product only follows descents, so it
    covers node-to-minima geodesics; between arbitrary nodes the flood
    must be allowed to climb over passes).  None means unreachable,
    the diagonal is 0.
    """
    d = [[None if x is None else x[0] for x in row] for row in incidence_matrix(g, 1)]
    n = len(d)
    for i in range(n):
        d[i][i] = 0
    for t in range(n):
        dt = d[t]
        for i in range(n):
            dit = d[i][t]
            if dit is None:
                continue
            row = d[i]
            for j in range(n):
                if dt[j] is None:
                    continue
                via = dit if dit > dt[j] else dt[j]
                if row[j] is None or via < row[j]:
                    row[j] = via
    return d


def brute_flooding_distance(g, x, y):
    """Min over simple paths of the max edge weight; None if unreachable."""
    if x == y:
        return 0
    ew, adj = g.edge_weights, rows(g)
    best = None

    def dfs(i, seen, mx):
        nonlocal best
        if best is not None and mx >= best:
            return
        if i == y:
            best = mx
            return
        for j, eid in adj[i]:
            if j not in seen:
                dfs(j, seen | {j}, max(mx, ew[eid]))

    dfs(x, {x}, 0)
    return best


def enumerate_walks(g, start, max_edges):
    """All walks (node sequences) from start with up to max_edges edges."""
    adj = rows(g)
    out = [[start]]
    frontier = [[start]]
    for _ in range(max_edges):
        nxt = []
        for walk in frontier:
            for j, _ in adj[walk[-1]]:
                nxt.append(walk + [j])
        out.extend(nxt)
        frontier = nxt
    return out


@pytest.fixture
def rng():
    return random.Random(20120229)
