import itertools
import random

import pytest

from morphograph import (
    InvalidFloodingGraph,
    UNSET,
    WeightedGraph,
    ZONE,
    basins_with_zones,
    drainage_forest,
    flooding_from_edges,
    flooding_from_nodes,
    flooding_pairs,
    forest_weight,
    partition,
    unique_drain,
    validate_flooding,
)
from morphograph.flooding import minima_of_flooding, minima_sets
from morphograph.graphs import connected_components
from morphograph.steepness import _kept_pairs, prune_to_steepness
from morphograph.watershed import _drain
from conftest import (
    adjacency_drainage_forest, constrained_msf_weight, random_edge_weighted, random_flooding,
)
from test_adjunction import small_graphs


def outside_nodes(fg):
    labels = minima_of_flooding(fg).values
    return [i for i in range(fg.num_nodes) if labels[i] == UNSET]


def test_unique_drain_five_path(five_path_flooding):
    cut = unique_drain(five_path_flooding)
    # the crest keeps exactly one of its two equal-weight sides
    kept = [e for e in cut.edges if 2 in e]
    assert len(kept) == 1 and kept[0] == (1, 2)  # smallest-id policy


def test_unique_drain_leaves_single_pair_graphs_alone(path4_flooding):
    # every node sits inside a minimum: nothing outside to cut
    cut = unique_drain(path4_flooding)
    assert set(cut.edges) == set(path4_flooding.edges)


def check_unique_descent(fg, cut):
    """Every node outside the minima keeps exactly one drain edge, and
    following drains always ends in a minimum (no cycles)."""
    assert validate_flooding(cut).ok
    labels = minima_of_flooding(fg).values
    outside = [i for i in range(fg.num_nodes) if labels[i] == UNSET]
    inside_edges = [
        e for e, (u, v) in enumerate(cut.edges)
        if labels[u] != UNSET and labels[v] != UNSET
    ]
    assert len(cut.edges) - len(inside_edges) == len(outside)
    # contracting the minima leaves a forest: #edges = #nodes - #components
    from morphograph import contract

    res = contract(cut, inside_edges)
    comp = connected_components(res.graph)
    assert len(res.graph.edges) == res.graph.num_nodes - comp.num_labels


def test_unique_drain_seeded_always_valid(five_path_flooding, rng):
    for seed in range(8):
        cut = unique_drain(five_path_flooding, f"seed:{seed}")
        check_unique_descent(five_path_flooding, cut)
    for _ in range(30):
        fg = random_flooding(rng)
        check_unique_descent(fg, unique_drain(fg, "seed:42"))


def test_unique_drain_forces_unique_descent(rng):
    for _ in range(60):
        fg = random_flooding(rng)
        check_unique_descent(fg, unique_drain(fg))


def test_forest_tree_counts(rng):
    for _ in range(60):
        fg = random_flooding(rng)
        forest = drainage_forest(fg)
        sets = minima_sets(minima_of_flooding(fg))
        assert forest.num_trees == len(sets)
        comp = connected_components(fg.partial(forest.edges))
        # acyclic: per tree, edges = nodes - 1
        assert len(forest.edges) == fg.num_nodes - comp.num_labels
        assert comp.num_labels == len(sets)
        assert all(v != UNSET for v in forest.labels.values)


def test_forest_weight_formula(rng):
    for _ in range(60):
        fg = random_flooding(rng)
        forest = drainage_forest(fg)
        nw = fg.node_weights
        labels = minima_of_flooding(fg).values
        sets = minima_sets(minima_of_flooding(fg))
        want = sum((len(m) - 1) * nw[min(m)] for m in sets)
        want += sum(nw[i] for i in range(fg.num_nodes) if labels[i] == UNSET)
        assert forest_weight(fg, forest) == want


def test_minimum_tree_contribution():
    # a 3-node minimum at level 2 contributes (3-1)*2 = 4 of tree weight
    g = WeightedGraph(
        4, ((0, 1), (1, 2), (0, 2), (2, 3)), (2, 2, 2, 5), (2, 2, 2, 5)
    )
    assert validate_flooding(g).ok
    forest = drainage_forest(g)
    internal = [e for e in forest.edges if 3 not in g.edges[e]]
    assert sum(g.edge_weights[e] for e in internal) == 4
    assert forest_weight(g, forest) == 4 + 5


def test_path4_forest_weight(path4_flooding):
    forest = drainage_forest(path4_flooding)
    assert forest_weight(path4_flooding, forest) == 1 + 2
    assert set(forest.edges) == {0, 1}  # both minima edges


def test_forest_weight_invariant_across_policies(rng):
    for _ in range(40):
        fg = random_flooding(rng)
        base = forest_weight(fg, drainage_forest(fg))
        for seed in range(3):
            assert forest_weight(fg, drainage_forest(fg, f"seed:{seed}")) == base


def test_forest_matches_constrained_kruskal(rng):
    for _ in range(60):
        fg = random_flooding(rng)
        assert forest_weight(fg, drainage_forest(fg)) == constrained_msf_weight(fg)


def test_zones_five_path(five_path_flooding):
    labeling = basins_with_zones(five_path_flooding, 2)
    assert labeling.values[:5] == (1, 1, ZONE, 2, 2)


def test_zones_single_minimum():
    g = flooding_from_nodes(
        WeightedGraph(4, ((0, 1), (1, 2), (2, 3)), (0, 0, 1, 2), None)
    )
    labeling = basins_with_zones(g, 2)
    assert ZONE not in labeling.values


def test_zone_propagates_upstream():
    # a fork whose stem drains through the tied crest keeps the tie mark
    #      4
    #      |
    #  0-1-2-3-0   (profile with the crest at node 2, stem node 4 above)
    g = WeightedGraph(
        6,
        ((0, 1), (1, 2), (2, 3), (3, 5), (2, 4)),
        (0, 1, 2, 1, 3, 0),
        None,
    )
    fg = flooding_from_nodes(g)
    labeling = basins_with_zones(fg, 2)
    assert labeling.values[2] == ZONE
    assert labeling.values[4] == ZONE  # upstream of the zone


def test_zones_shrink_with_depth(rng):
    for _ in range(50):
        fg = random_flooding(rng, 9)
        zones = {
            k: basins_with_zones(fg, k).zone_nodes() for k in (1, 2, 3, 4)
        }
        assert zones[4] <= zones[3] <= zones[2] <= zones[1]


def test_partition_five_path(five_path_flooding):
    labeling = partition(five_path_flooding, 2)
    assert labeling.values[:5] == (1, 1, 1, 2, 2)


def test_partition_single_minimum():
    g = flooding_from_nodes(
        WeightedGraph(3, ((0, 1), (1, 2)), (0, 0, 3), None)
    )
    assert set(partition(g, 2).values) == {1}


def test_partition_agrees_with_zones_outside_z(rng):
    for _ in range(60):
        fg = random_flooding(rng)
        zoned = basins_with_zones(fg, 2)
        for tie in ("min-label", "seed:1", "seed:2"):
            part = partition(fg, 2, tie)
            for i in range(fg.num_nodes):
                if zoned.values[i] not in (ZONE, UNSET):
                    assert part.values[i] == zoned.values[i]
                elif zoned.values[i] == ZONE:
                    assert part.values[i] != UNSET


def test_partition_labels_every_node(rng):
    for _ in range(40):
        fg = random_flooding(rng)
        assert UNSET not in partition(fg, 3).values


def test_seeded_partition_reproducible(five_path_flooding):
    a = partition(five_path_flooding, 2, "seed:7")
    b = partition(five_path_flooding, 2, "seed:7")
    assert a.values == b.values


def test_drainage_refuses_a_graph_that_is_not_flooding():
    # node 1 weighs 1, but its lowest adjacent edge weighs 3
    g = WeightedGraph(3, ((0, 1), (1, 2)), (1, 1, 2), (3, 3))
    for op in (flooding_pairs, unique_drain, drainage_forest,
               lambda g: partition(g, 2), lambda g: basins_with_zones(g, 2)):
        with pytest.raises(InvalidFloodingGraph):
            op(g)


def _pairing_kernel_corpus(rng):
    """(flooding graph, input node count): every graph of up to 4 nodes,
    edge-weighted in {0, 1, 2} and node-weighted in {0, 1} (plateaus next
    to dummy twins), then 200 random connected graphs of up to 12 nodes,
    half of them node-weighted."""
    for g in small_graphs(4):
        for ew in itertools.product((0, 1, 2), repeat=len(g.edges)):
            yield flooding_from_edges(WeightedGraph(g.num_nodes, g.edges, None, ew)), g.num_nodes
        for nw in itertools.product((0, 1), repeat=g.num_nodes):
            yield flooding_from_nodes(WeightedGraph(g.num_nodes, g.edges, nw, None)), g.num_nodes
    for m in range(200):
        g = random_edge_weighted(rng, 12, rng.choice((2, 6)), connected=True)
        if m % 2:  # the same kind of graph, weighted on its nodes
            nw = [rng.randint(0, 3) for _ in range(g.num_nodes)]
            yield flooding_from_nodes(WeightedGraph(g.num_nodes, g.edges, nw, None)), g.num_nodes
        else:
            yield flooding_from_edges(g), g.num_nodes


def test_pairing_kernel_equals_the_drainage_forest_of_the_pruned_graph():
    # each waterfall level pairs the nodes from the pairs pruning keeps and
    # builds no pruned graph; the oracle builds it, with its adjacency rows,
    # and takes its drainage forest as drainage_forest did before.  Forest
    # ids, labels and the generator's state after the call must all agree
    rng = random.Random(71)
    for fg, n in _pairing_kernel_corpus(rng):
        last = None
        for k in range(1, n + 2):
            picked = list(_kept_pairs(fg, k)[1])
            if picked == last:  # the fixed point: every deeper k repeats this one
                continue
            last = picked
            pruned = prune_to_steepness(fg, k)
            ids = [fg.edges.index(e) for e in pruned.edges]
            for tie in (None, *(rng.randrange(2**32) for _ in range(3))):
                want_rng, got_rng = (None, None) if tie is None else (
                    random.Random(tie), random.Random(tie))
                want = adjacency_drainage_forest(pruned, want_rng)
                got = _drain(fg, picked, got_rng)
                assert got.edges == frozenset(ids[e] for e in want.edges)
                assert got.labels == want.labels
                assert tie is None or got_rng.getstate() == want_rng.getstate()
