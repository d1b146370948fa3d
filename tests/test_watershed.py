import itertools
import random

import pytest

from morphograph import (
    DisconnectedInput,
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
from morphograph import build_hierarchy, waterfall
from morphograph.flooding import _flooding_pairs, _pair_nodes, _reach, minima_of_flooding, minima_sets
from morphograph.formats import image_to_graph, write_pgm
from morphograph.graphs import Labeling, connected_components
from morphograph.steepness import (
    _inner_edges, _kept_pairs, _least, _refined, _upstream, minimal_track_edges,
    prune_to_steepness, track_ranks,
)
from morphograph.watershed import SpanningForest, _drain
from conftest import (
    adjacency_drainage_forest, constrained_msf_weight, quantized_pixel_floodings,
    random_edge_weighted, random_flooding,
)
from test_adjunction import small_graphs
from test_geodesics import _attaining_minima, _one_graph_per_shape


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
            picked = list(_kept_triples(fg, k))
            if picked == last:  # the fixed point: every deeper k repeats this one
                continue
            last = picked
            pruned = prune_to_steepness(fg, k)
            ids = [fg.edges.index(e) for e in pruned.edges]
            for tie in (None, *(rng.randrange(2**32) for _ in range(3))):
                want_rng, got_rng = (None, None) if tie is None else (
                    random.Random(tie), random.Random(tie))
                want = adjacency_drainage_forest(pruned, want_rng)
                got = _drain(fg, _pair_nodes(fg, *_kept_pairs(fg, k), got_rng))
                assert got.edges == frozenset(ids[e] for e in want.edges)
                assert got.labels == want.labels
                assert tie is None or got_rng.getstate() == want_rng.getstate()


def _drain_by_climb_rows(g, pair):
    """``watershed._drain`` as it ran before it followed the pair chains,
    kept as its oracle: rows of inner edges sorted by neighbor, a climb
    row entry per pair at its head, and one search per tree from each
    minimum's least node."""
    labels, edges, rows = list(minima_of_flooding(g).values), g.edges, {}
    for eid, (u, v) in enumerate(edges):
        if labels[u] and labels[v]:
            rows.setdefault(u, []).append(eid)
            rows.setdefault(v, []).append(eid)
    for row in rows.values():
        row.sort(key=lambda e: sum(edges[e]))
    for i, eid in enumerate(pair):
        if eid >= 0:
            u, v = edges[eid]
            rows.setdefault(u + v - i, []).append(eid)
    forest, seen = [], bytearray(g.num_nodes)
    for start, lab in enumerate(labels):
        if lab and not seen[start]:
            for i in _reach(start, rows, edges, seen, forest):
                labels[i] = lab
    return SpanningForest(frozenset(forest), Labeling(tuple(labels), "nodes"))


def _shuffled_floodings(rng, count):
    """Floodings of connected edge-weighted graphs of up to 14 nodes whose
    edge lists are shuffled, weighted in {0, 1, 2} or {0 ... 5}: minima
    with cycles whose least node is seldom the first one listed."""
    for _ in range(count):
        g = random_edge_weighted(rng, 14, rng.choice((2, 5)), rng.choice((0.3, 0.6)), True)
        order = list(range(len(g.edges)))
        rng.shuffle(order)
        yield flooding_from_edges(WeightedGraph(
            g.num_nodes, [g.edges[e] for e in order], None, [g.edge_weights[e] for e in order]))


def test_drain_follows_the_pair_chains_as_the_climb_rows_did():
    # each minimum spans itself from its least node and every other node
    # takes the label at the end of its pair chain; forest and labels as the
    # climb rows gave them, on the pairings of both tie policies, also where
    # a node outside the minima has no pair (its chain stays UNSET)
    rng = random.Random(97)
    corpus = [fg for fg, _ in _pairing_kernel_corpus(rng)]
    corpus += quantized_pixel_floodings(rng, 20)
    corpus += _shuffled_floodings(rng, 300)
    unpaired = cyclic = 0
    for fg in corpus:
        outside = outside_nodes(fg)
        for k in (1, 2, 3):
            for tie in (None, rng.randrange(2**32)):
                pair = _pair_nodes(fg, *_kept_pairs(fg, k), tie and random.Random(tie))
                assert _drain(fg, pair) == _drain_by_climb_rows(fg, pair)
                if outside:
                    cut = list(pair)
                    cut[rng.choice(outside)] = -1
                    got = _drain(fg, cut)
                    assert got == _drain_by_climb_rows(fg, cut)
                    unpaired += UNSET in got.labels.values
        inner = _inner_edges(fg, _flooding_pairs(fg)[0])  # more than spanning trees need
        cyclic += len(inner) > fg.num_nodes - len(outside) - minima_of_flooding(fg).num_labels
    assert unpaired > 10000 and cyclic > 300


def _kept_triples(g, k):
    """The flooding pairs (tail, head, edge id) that depth-``k`` pruning
    keeps, as ``steepness._minimal_pairs`` yielded them before its callers
    tested the kept-pair rule in place; kept as their oracle."""
    if k < 1:
        raise ValueError("steepness depth must be >= 1")
    pairs = _flooding_pairs(g)
    _, tails, heads, eids = pairs
    rank = _refined(g.node_weights, pairs, k - 1)
    lo = _least(rank, tails, heads, max(rank, default=0) + 1)
    return ((i, j, eid) for i, j, eid in zip(tails, heads, eids) if rank[j] == lo[i])


def _kept_columns(g, k):
    """``_flooding_pairs(g)`` with only the columns of ``_kept_triples``."""
    triples = list(_kept_triples(g, k))
    return _flooding_pairs(g)[0], *([t[c] for t in triples] for c in range(3))


def test_kept_pairs_are_tested_in_place_as_the_triples_were_filtered():
    # the consumers of the minimal pairs test rank[head] == lo[tail] over the
    # pair columns; each must give what it gave when it read the triples
    rng = random.Random(73)
    corpus = [*_pairing_kernel_corpus(rng), *((fg, 0) for fg in quantized_pixel_floodings(rng, 15))]
    for fg, _ in corpus:
        for k in range(1, 5):
            triples = list(_kept_triples(fg, k))
            cols = _kept_columns(fg, k)
            in_min = cols[0]
            rank, rows = _upstream(fg, k)
            want = [[] for _ in range(fg.num_nodes)]
            for i, j, _ in triples:
                want[j].append(i)
            assert rank == track_ranks(fg, k - 1)
            assert rows == [sorted(row) for row in want]
            assert prune_to_steepness(fg, k) == fg.partial(
                _inner_edges(fg, in_min) + [eid for _, _, eid in triples])
            tracks = {}
            for i, _, eid in triples:
                tracks.setdefault(i, []).append(eid)
            want_tracks = {None: frozenset(_inner_edges(fg, in_min))}
            want_tracks.update((i, frozenset(tracks[i])) for i in sorted(tracks))
            assert list(minimal_track_edges(fg, k).items()) == list(want_tracks.items())
            for tie in (None, rng.randrange(2**32)):
                want_rng, got_rng = (None, None) if tie is None else (
                    random.Random(tie), random.Random(tie))
                assert _pair_nodes(fg, *_kept_pairs(fg, k), got_rng) == _pair_nodes(
                    fg, cols, None, want_rng)
                assert tie is None or got_rng.getstate() == want_rng.getstate()


def _levels(g, k, tie):
    """Each level's forest and partition of ``build_hierarchy``, or
    ``DisconnectedInput`` if it refuses ``g``."""
    try:
        return [(lvl.forest, lvl.partition) for lvl in build_hierarchy(g, k, tie).levels]
    except DisconnectedInput:
        return DisconnectedInput


def test_hierarchy_levels_test_the_kept_pairs_in_place(monkeypatch):
    # the oracle hands each level's pairing the kept pairs as the filtered
    # columns of the triples, with no ranks to test
    rng = random.Random(79)
    corpus = [*_pairing_kernel_corpus(rng), *((fg, 0) for fg in quantized_pixel_floodings(rng, 15))]
    for fg, _ in corpus:
        for k in range(1, 5):
            for tie in ("min-label", rng.randrange(2**32)):
                want_rng, got_rng = ("min-label",) * 2 if tie == "min-label" else (
                    random.Random(tie), random.Random(tie))
                got = _levels(fg, k, got_rng)
                with monkeypatch.context() as m:
                    m.setattr(waterfall, "_kept_pairs", lambda g, k: (_kept_columns(g, k), None))
                    assert got == _levels(fg, k, want_rng)
                assert tie == "min-label" or got_rng.getstate() == want_rng.getstate()


def _propagate_by_source_lists(g, k, rng, keep_zones):
    """``watershed._propagate`` as it ran before it folded each wavefront,
    kept as its oracle: every newly reached node lists its sources in
    increasing id order, then resolves them."""
    labels = list(minima_of_flooding(g).values)
    _, rows = _upstream(g, k)
    frontier = [i for i, lab in enumerate(labels) if lab != UNSET]
    while frontier:
        sources = {}
        for f in frontier:
            for i in rows[f]:
                if labels[i] == UNSET:
                    sources.setdefault(i, []).append(f)
        frontier = sorted(sources)
        for i in frontier:
            src = sources[i]
            if len(src) == 1:  # one source draws nothing from rng
                labels[i] = labels[src[0]]
                continue
            got = sorted({labels[j] for j in src})
            if ZONE in got:
                labels[i] = ZONE
            elif len(got) == 1:
                labels[i] = got[0]
            elif keep_zones:
                labels[i] = ZONE
            elif rng is None:
                labels[i] = got[0]
            else:
                labels[i] = labels[rng.choice(src)]
    return Labeling(tuple(labels), "nodes")


def _propagation_corpus():
    """(flooding graph, depths): one graph per shape on up to 4 nodes,
    weighted on its nodes and, with an edge, on its edges in {0, 1, 2} in
    every way, at k = 1 ... n + 1; then seeded 8-connected pixel floodings
    at 4 gray levels, at k = 1 ... 5."""
    for g in _one_graph_per_shape(4):
        depths = range(1, g.num_nodes + 2)
        for nw in itertools.product(range(3), repeat=g.num_nodes):
            yield flooding_from_nodes(g.with_weights(node_weights=nw)), depths
        for ew in itertools.product(range(3), repeat=len(g.edges)) if g.edges else ():
            yield flooding_from_edges(g.with_weights(edge_weights=ew)), depths
    rng = random.Random(83)
    for _ in range(60):
        w, h = rng.randint(2, 12), rng.randint(2, 12)
        pixels = [rng.randrange(4) for _ in range(w * h)]
        yield flooding_from_nodes(image_to_graph(write_pgm(w, h, pixels, 3), 8)), range(1, 6)


def test_each_wavefront_folds_as_its_source_lists_resolve():
    # basins_with_zones and partition fold each reached node's sources into
    # one label as they scan a wavefront; they must label as the source
    # lists did, and a seeded partition must draw the same numbers
    rng = random.Random(89)
    for fg, depths in _propagation_corpus():
        for k in depths:
            assert basins_with_zones(fg, k) == _propagate_by_source_lists(fg, k, None, True)
            assert partition(fg, k) == _propagate_by_source_lists(fg, k, None, False)
            seed = rng.randrange(2**32)
            want = _propagate_by_source_lists(fg, k, random.Random(seed), False)
            assert partition(fg, k, f"seed:{seed}") == want
            want_rng, got_rng = random.Random(seed), random.Random(seed)
            assert partition(fg, k, got_rng) == _propagate_by_source_lists(fg, k, want_rng, False)
            assert got_rng.getstate() == want_rng.getstate()


def _shortest_hop_minima(fg, k):
    """Per node, the minima it reaches by its shortest-hop descents: paths
    of flooding pairs of the depth-k pruned graph, built and read here
    from its edges and weights alone."""
    pruned, labels = prune_to_steepness(fg, k), minima_of_flooding(fg).values
    nw, up = pruned.node_weights, [[] for _ in range(fg.num_nodes)]
    for (u, v), w in zip(pruned.edges, pruned.edge_weights):
        for i, j in ((u, v), (v, u)):
            if not labels[i] and w == nw[i]:  # a pair: i floods the edge down to j
                up[j].append(i)
    reach = [{lab} if lab else set() for lab in labels]
    hop = [0 if lab else None for lab in labels]
    frontier = [i for i, lab in enumerate(labels) if lab]
    while frontier:  # breadth first from the minima, up the pairs
        nxt = []
        for j in frontier:
            for i in up[j]:
                if hop[i] is None:
                    hop[i] = hop[j] + 1
                    nxt.append(i)
                if hop[i] == hop[j] + 1:
                    reach[i] |= reach[j]
        frontier = nxt
    return reach


def test_tie_zones_are_the_shortest_hop_ties_inside_the_distance_ties():
    # what a zone is: a node whose shortest-hop descents on the depth-k
    # pruned graph reach two or more minima.  partition under min-label
    # takes the least of them and a seeded partition one of them.  The
    # nodes whose depth-k distance two or more minima attain include the
    # zones: that distance reads only a path's first k steps, so it also
    # ties two minima through a path that climbs after them.  On every
    # graph of up to 4 nodes the two are equal from k = 2 on
    rng = random.Random(101)
    checks, wider = 0, {False: 0, True: 0}
    for fg, depths in _propagation_corpus():
        for k in depths:
            reach = _shortest_hop_minima(fg, k)
            zones = basins_with_zones(fg, k).values
            least = partition(fg, k).values
            drawn = partition(fg, k, f"seed:{rng.randrange(2**32)}").values
            for i, minima in enumerate(reach):
                assert zones[i] == (ZONE if len(minima) > 1 else min(minima))
                assert least[i] == min(minima) and drawn[i] in minima
            ties = [len(w) > 1 for w in _attaining_minima(fg, k)]
            assert all(tie for tie, z in zip(ties, zones) if z == ZONE)
            if k >= 2 and fg.num_nodes - len(fg.dummies) <= 4:
                assert ties == [z == ZONE for z in zones]
            wider[k >= 2] += sum(tie and z != ZONE for tie, z in zip(ties, zones))
            checks += len(reach)
    assert checks > 60000 and wider[False] > 0 and wider[True] > 0
    # two documented differences.  At k = 1, node 2 drains to minimum 1
    # alone, but both minima are at distance (1,) from it
    g = WeightedGraph(6, ((0, 1), (0, 2), (1, 3), (0, 4), (3, 5)), (0, 1, 1, 0, 0, 0),
                      (1, 1, 1, 0, 0))
    assert minima_sets(minima_of_flooding(g)) == [{0, 4}, {3, 5}]
    assert basins_with_zones(g, 1).values[2] == 1
    assert _attaining_minima(g, 1)[2] == [1, 2]
    # at k = 2, on the path 0-1-2-3-4 weighted (0, 1, 0, 1, 1), node 4
    # descends to minimum 2 alone, but the track 4, 3, 2, 1, 0 starts as
    # the track 4, 3, 2 does
    fg = flooding_from_nodes(WeightedGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4)), (0, 1, 0, 1, 1)))
    assert basins_with_zones(fg, 2).values[4] == 2
    assert _attaining_minima(fg, 2)[4] == [1, 2]
