import contextlib
import itertools
import random
import sys

import pytest

from morphograph import (
    DisconnectedInput,
    IncompleteHierarchy,
    MissingWeights,
    WeightedGraph,
    build_hierarchy,
    drainage_forest,
    emergent_tree,
    forest_weight,
    merge_levels,
)
from morphograph.flooding import as_flooding, flooding_from_edges, parse_tie
from morphograph import graphs
from morphograph.graphs import Labeling, connected_components, contract
from morphograph.steepness import prune_to_steepness
from morphograph.waterfall import Hierarchy, HierarchyLevel
from morphograph.weights import TOP
from conftest import (
    adjacency_drainage_forest, constrained_msf_weight, kruskal_mst, quantized_pixel_floodings,
    random_edge_weighted, random_flooding, random_node_weighted,
)
from test_adjunction import small_graphs

PROFILE = WeightedGraph(
    7, tuple((i, i + 1) for i in range(6)), (1, 5, 2, 7, 1, 6, 3), None
)


def random_connected(rng, max_nodes=12, w_max=9):
    return random_edge_weighted(rng, max_nodes, w_max, connected=True)


def test_profile_region_counts_four_two_one():
    h = build_hierarchy(PROFILE, 2)
    assert [lvl.region_count for lvl in h.levels] == [4, 2, 1]
    assert h.complete


def test_single_minimum_one_level():
    g = WeightedGraph(3, ((0, 1), (1, 2)), None, (1, 1))
    h = build_hierarchy(g, 2)
    assert len(h.levels) == 1
    assert h.levels[0].region_count == 1


def test_lone_bases_go_through_the_level_loop():
    # a base of 0 or 1 node takes one level: no forest edge, one region per
    # node and, as every level's contraction, a contracted graph without
    # node weights (a node-weighted lone base was its own contraction once)
    lone = [WeightedGraph(0, (), None, ()), WeightedGraph(0, (), (), None),
            WeightedGraph(0, (), (), ()), WeightedGraph(1, (), None, ()),
            WeightedGraph(1, (), (TOP,), ())]
    for g in lone:
        n = g.num_nodes
        for k in (1, 2, 3):
            for tie in ("min-label", "seed:7"):
                h = build_hierarchy(g, k, tie)
                assert h.base.num_nodes == n and h.complete == (n == 1)
                [level] = h.levels
                assert level == HierarchyLevel(frozenset(), Labeling((1,) * n, "nodes"), n,
                                               WeightedGraph(n, (), None, ()))
                assert merge_levels(h) == ()
    # a lone node weighted on its node alone gets a dummy twin: no lone base
    h = build_hierarchy(WeightedGraph(1, (), (5,), None), 2)
    assert h.base.dummies == {1} and [lvl.region_count for lvl in h.levels] == [1]
    with pytest.raises(MissingWeights):
        build_hierarchy(WeightedGraph(1, ()), 2)


def test_region_counts_strictly_decrease(rng):
    for _ in range(60):
        g = random_connected(rng, 10)
        h = build_hierarchy(g, 2)
        counts = [lvl.region_count for lvl in h.levels]
        assert counts[-1] == 1
        assert all(a > b for a, b in zip(counts, counts[1:]))


def test_partitions_coarsen(rng):
    for _ in range(50):
        g = random_connected(rng, 10)
        h = build_hierarchy(g, 2)
        for prev, nxt in zip(h.levels, h.levels[1:]):
            owner = {}
            for b in range(h.base.num_nodes):
                region = prev.partition.values[b]
                coarse = nxt.partition.values[b]
                assert owner.setdefault(region, coarse) == coarse


def test_profile_merge_levels():
    h = build_hierarchy(PROFILE, 2)
    lvls = merge_levels(h)
    separating = sorted(
        lvls[eid]
        for eid, (u, v) in enumerate(h.base.edges)
        if h.levels[0].partition.values[u] != h.levels[0].partition.values[v]
    )
    assert separating == [1, 1, 2]


def test_merge_levels_single_level_hierarchy():
    g = WeightedGraph(3, ((0, 1), (1, 2)), None, (1, 1))
    h = build_hierarchy(g, 2)
    assert all(l in (0, 1) for l in merge_levels(h))


def test_merge_levels_are_ultrametric_on_regions(rng):
    # along the emergent tree, the merge level between any two level-1
    # regions is the max edge level on the path: an ultrametric
    for _ in range(30):
        g = random_connected(rng, 9)
        h = build_hierarchy(g, 2)
        lvls = merge_levels(h)
        tree = emergent_tree(h)
        n = h.base.num_nodes
        adj = {i: [] for i in range(n)}
        for e in tree:
            u, v = h.base.edges[e]
            adj[u].append((v, lvls[e]))
            adj[v].append((u, lvls[e]))

        def tree_path_max(x, y):
            stack = [(x, -1, 0)]
            seen = {x}
            while stack:
                i, mx, _ = stack.pop()
                if i == y:
                    return mx
                for j, l in adj[i]:
                    if j not in seen:
                        seen.add(j)
                        stack.append((j, max(mx, l), 0))
            return None

        part1 = h.levels[0].partition.values
        import itertools

        nodes = list(range(min(n, 7)))
        d = {}
        for x, y in itertools.combinations(nodes, 2):
            d[(x, y)] = d[(y, x)] = tree_path_max(x, y)
            if part1[x] == part1[y]:
                continue
        for x, y, z in itertools.permutations(nodes, 3):
            if (x, z) in d and (x, y) in d and (y, z) in d:
                assert d[(x, z)] <= max(d[(x, y)], d[(y, z)])


def test_tree_edge_count(rng):
    for _ in range(40):
        g = random_connected(rng)
        h = build_hierarchy(g, 2)
        tree = emergent_tree(h)
        assert len(tree) == h.base.num_nodes - 1
        comp = connected_components(h.base.partial(tree))
        assert comp.num_labels == 1


def test_tree_weight_matches_kruskal(rng):
    for _ in range(100):
        g = random_connected(rng)
        h = build_hierarchy(g, 2)
        tree = emergent_tree(h)
        got = sum(h.base.edge_weights[e] for e in tree)
        want, _ = kruskal_mst(g)
        assert got == want


def test_tree_unique_when_weights_distinct(rng):
    for _ in range(40):
        g = random_connected(rng, 9)
        perm = list(range(len(g.edges)))
        rng.shuffle(perm)
        g = g.with_weights(edge_weights=tuple(perm))  # all weights distinct
        h = build_hierarchy(g, 2)
        _, kruskal_edges = kruskal_mst(g)
        assert emergent_tree(h) == frozenset(kruskal_edges)


def test_partial_unions_are_forests(rng):
    for _ in range(40):
        g = random_connected(rng, 10)
        h = build_hierarchy(g, 2)
        acc = set()
        for lvl in h.levels:
            acc |= lvl.forest
            comp = connected_components(h.base.partial(acc))
            assert len(acc) == h.base.num_nodes - comp.num_labels  # acyclic


def test_node_weighted_input_hides_dummies():
    h = build_hierarchy(WeightedGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4)), (0, 1, 2, 1, 0), None), 2)
    assert h.base.dummies
    assert [lvl.region_count for lvl in h.levels] == [2, 1]


def _side_by_side(a, b):
    """Disjoint union of two graphs weighted on the same carriers."""
    n = a.num_nodes
    nw = None if a.node_weights is None else a.node_weights + b.node_weights
    ew = None if a.edge_weights is None else a.edge_weights + b.edge_weights
    return WeightedGraph(
        n + b.num_nodes, a.edges + tuple((u + n, v + n) for u, v in b.edges), nw, ew)


def _disconnected_corpus(rng):
    for _ in range(15):
        yield _side_by_side(random_connected(rng, 8), random_connected(rng, 8))
    for _ in range(15):  # isolated nodes, which flood to TOP
        lone = WeightedGraph(rng.randint(1, 3), (), None, ())
        yield _side_by_side(random_connected(rng, 10), lone)
    for _ in range(15):  # node-weighted: isolated minima get dummies
        yield _side_by_side(random_node_weighted(rng, 8), random_node_weighted(rng, 8))
    for n in range(2, 6):
        yield WeightedGraph(n, (), None, ())
        yield WeightedGraph(n, (), tuple(rng.randint(0, 9) for _ in range(n)), None)


def test_disconnected_input_rejected():
    rng = random.Random(41)
    corpus = [WeightedGraph(4, ((0, 1), (2, 3)), None, (1, 2)), *_disconnected_corpus(rng)]
    for g in corpus:
        for k in range(1, 5):
            for tie in ("min-label", f"seed:{rng.randrange(2**32)}"):
                with pytest.raises(DisconnectedInput, match="^waterfall needs a connected graph$"):
                    build_hierarchy(g, k, tie)


def test_one_labeling_per_level_inside_the_drainage_forest(monkeypatch):
    # each level pairs the nodes from the pairs pruning keeps and labels
    # each tree by one search up from its minimum: no level builds a
    # pruned graph or a connected_components labeling, and
    # the level loop itself finds a disconnected graph
    original, callers = connected_components, []

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("morphograph") and vars(module).get("connected_components") is original:
            monkeypatch.setattr(module, "connected_components", counted)
    partials = []
    partial = graphs.WeightedGraph.partial

    def counted_partial(g, keep):
        partials.append(sys._getframe(1).f_code.co_name)
        return partial(g, keep)

    monkeypatch.setattr(graphs.WeightedGraph, "partial", counted_partial)
    rng = random.Random(43)
    corpus = [PROFILE, *(random_connected(rng, 16) for _ in range(20))]
    corpus += [random_node_weighted(rng, 12) for _ in range(10)]
    for g in corpus:
        for tie in ("min-label", "seed:5"):
            with contextlib.suppress(DisconnectedInput):  # node-weighted graphs may be apart
                build_hierarchy(g, 2, tie)
            assert callers == []
            # flooding_from_edges keeps each node's lowest edges as a partial graph
            assert set(partials) <= {"_from_edges"}


def test_incomplete_hierarchy_rejected():
    h = build_hierarchy(PROFILE, 2)
    truncated = Hierarchy(h.base, h.levels[:1])
    with pytest.raises(IncompleteHierarchy):
        emergent_tree(truncated)


def test_seeded_hierarchy_reproducible(rng):
    for _ in range(10):
        g = random_connected(rng, 9)
        a = build_hierarchy(g, 2, "seed:11")
        b = build_hierarchy(g, 2, "seed:11")
        assert [l.partition.values for l in a.levels] == [
            l.partition.values for l in b.levels
        ]
        assert emergent_tree(a) == emergent_tree(b)


def test_hierarchy_accepts_flooding_graph_directly(five_path_flooding):
    h = build_hierarchy(five_path_flooding, 2)
    assert [lvl.region_count for lvl in h.levels] == [2, 1]
    assert len(emergent_tree(h)) == five_path_flooding.num_nodes - 1


def _edge_id_hierarchy(g, k, tie):
    """``build_hierarchy`` as it ran before it matched the edges of its
    partial graphs by one walk, kept as its oracle: each level builds the
    pruned graph and takes the drainage forest of its adjacency rows
    (``adjacency_drainage_forest``), and each forest edge is looked up in
    the current graph by its end nodes."""
    rng = parse_tie(tie)
    flood = as_flooding(g)
    base = g if g.has_edge_weights else flood
    levels, cur_full, cur_flood = [], base, flood
    to_region = list(range(base.num_nodes))
    to_base_edge = list(range(len(base.edges)))
    while True:
        pruned = prune_to_steepness(cur_flood, k)
        forest = adjacency_drainage_forest(pruned, rng)
        index = {e: eid for eid, e in enumerate(cur_full.edges)}
        full_ids = [index[pruned.edges[eid]] for eid in forest.edges]
        part = Labeling(
            tuple(forest.labels.values[to_region[b]] for b in range(base.num_nodes)), "nodes")
        contraction = contract(cur_full, full_ids)
        levels.append(HierarchyLevel(frozenset(to_base_edge[eid] for eid in full_ids), part,
                                     forest.num_trees, contraction.graph))
        if contraction.graph.num_nodes <= 1:
            return Hierarchy(base, tuple(levels))
        to_region = [contraction.node_map[to_region[b]] for b in range(base.num_nodes)]
        to_base_edge = [to_base_edge[contraction.edge_origins[e]]
                        for e in range(len(contraction.graph.edges))]
        cur_full = contraction.graph
        cur_flood = flooding_from_edges(cur_full)


def _all_levels_merge(h):
    """``merge_levels`` as it ran before it stopped at the first level
    that joins an edge's sides, kept as its oracle: the last level, over
    all of them, at which the two sides differ."""
    out = []
    for (u, v) in h.base.edges:
        lvl = 0
        for m, level in enumerate(h.levels, start=1):
            if level.partition.values[u] != level.partition.values[v]:
                lvl = m
        out.append(lvl)
    return tuple(out)


def test_hierarchy_and_merge_levels_match_their_oracles():
    rng = random.Random(37)
    corpus = [random_connected(rng, rng.choice((6, 10, 16))) for _ in range(40)]
    corpus += [random_flooding(rng, rng.choice((6, 10, 16)), connected=True) for _ in range(60)]
    corpus += quantized_pixel_floodings(rng, 10)
    for g in corpus:
        connected = connected_components(g).num_labels == 1
        for k in range(1, 7):
            for tie in ("min-label", f"seed:{rng.randrange(2**32)}"):
                if not connected:  # flooding an edge-weighted graph may cut it apart
                    with pytest.raises(DisconnectedInput):
                        build_hierarchy(g, k, tie)
                    continue  # the oracle has no refusal: it would never end
                h = build_hierarchy(g, k, tie)
                assert h == _edge_id_hierarchy(g, k, tie)
                assert merge_levels(h) == _all_levels_merge(h)


def _small_connected_graphs():
    """Every connected graph of up to 4 nodes, edge-weighted in {0, 1, 2},
    then node-weighted in {0, 1}."""
    shapes = [g for g in small_graphs(4) if connected_components(g).num_labels == 1]
    for g in shapes:
        for ew in itertools.product((0, 1, 2), repeat=len(g.edges)):
            yield WeightedGraph(g.num_nodes, g.edges, None, ew)
    for g in shapes:
        for nw in itertools.product((0, 1), repeat=g.num_nodes):
            yield WeightedGraph(g.num_nodes, g.edges, nw, None)


def test_every_small_connected_graph_holds_the_forest_and_tree_equivalences():
    # drainage-forest weight = constrained Kruskal weight, and at every depth
    # the emergent tree is a spanning tree of Kruskal's weight, under both ties
    hierarchies = 0
    for g in _small_connected_graphs():
        fg = as_flooding(g)
        want = constrained_msf_weight(fg)
        for tie in ("min-label", "seed:3"):
            assert forest_weight(fg, drainage_forest(fg, tie)) == want, (g, tie)
        for k, tie in itertools.product(range(1, g.num_nodes + 2), ("min-label", "seed:3")):
            h = build_hierarchy(g, k, tie)
            tree = emergent_tree(h)
            assert len(tree) == h.base.num_nodes - 1, (g, k, tie)
            assert sum(h.base.edge_weights[e] for e in tree) == kruskal_mst(h.base)[0], (g, k, tie)
            hierarchies += 1
    assert hierarchies == 45162
