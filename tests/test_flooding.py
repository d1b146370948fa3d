import itertools
import random

import pytest

from morphograph import (
    InvalidFloodingGraph,
    WeightedGraph,
    ZeroNonMinimum,
    build_hierarchy,
    flooding_from_edges,
    flooding_from_nodes,
    flooding_pairs,
    minima_of_flooding,
    prune_to_steepness,
    validate_flooding,
    zero_minima,
)
from morphograph.adjunction import dilate_nodes_to_edges, erode_edges_to_nodes, is_invariant
from morphograph.flooding import FloodingReport, _from_edges, assign_pairs, minima_sets, parse_tie
from morphograph.formats import pixel_graph
from morphograph.graphs import (
    UNSET,
    _node_walk,
    _zone_walk,
    expand_isolated_minima,
    flat_zones,
    lowest_edge_filter,
    regional_minima,
)
from morphograph.weights import TOP
from conftest import (
    quantized_pixel_floodings,
    random_edge_weighted,
    random_flooding,
    random_node_weighted,
    rows,
)


def test_from_edges_path4(path4):
    fg = flooding_from_edges(path4)
    assert fg.edges == ((0, 1), (2, 3))
    assert fg.edge_weights == (1, 2)
    assert fg.node_weights == (1, 1, 2, 2)
    assert validate_flooding(fg).ok


def test_from_edges_keeps_invariant_graphs(rng):
    for _ in range(40):
        g = random_edge_weighted(rng, 8)
        fg = flooding_from_edges(g)
        if is_invariant(g, g.edge_weights, "edge_opening"):
            assert set(fg.edges) == set(g.edges)
        assert fg.node_weights == erode_edges_to_nodes(fg, fg.edge_weights)


def test_from_edges_single_edge():
    g = WeightedGraph(2, ((0, 1),), None, (5,))
    fg = flooding_from_edges(g)
    assert fg.node_weights == (5, 5)


def test_from_nodes_five_path(five_path):
    fg = flooding_from_nodes(five_path)
    assert fg.num_nodes == 7
    assert sorted(fg.dummies) == [5, 6]
    assert fg.edge_weights == (1, 2, 2, 1, 0, 0)
    assert validate_flooding(fg).ok


def test_from_nodes_no_dummies_needed():
    g = WeightedGraph(3, ((0, 1), (1, 2)), (2, 2, 7), None)
    fg = flooding_from_nodes(g)
    assert fg.num_nodes == 3
    assert fg.edge_weights == (2, 7)


def test_from_nodes_single_node():
    fg = flooding_from_nodes(WeightedGraph(1, (), (5,), None))
    assert fg.num_nodes == 2
    assert fg.edge_weights == (5,)
    assert validate_flooding(fg).ok


def test_validate_flags_bad_edge(path4):
    g = path4.with_weights(node_weights=(1, 1, 2, 2))
    report = validate_flooding(g)
    assert not report.ok
    assert report.bad_edges == (1,)  # bc carries 3, max of endpoints is 2


def test_validate_empty_graph():
    assert validate_flooding(WeightedGraph(0, (), (), ())).ok


def test_validate_roundtrip(rng):
    for _ in range(100):
        assert validate_flooding(random_flooding(rng)).ok


def test_pairs_empty_when_everything_is_minimum(path4_flooding):
    assert flooding_pairs(path4_flooding) == []


def test_pairs_five_path(five_path_flooding):
    pairs = dict(flooding_pairs(five_path_flooding))
    g = five_path_flooding
    assert set(pairs) == {1, 2, 3}
    # c (node 2) ties between both sides, smallest neighbor id wins
    assert g.edges[pairs[2]] == (1, 2)
    assert g.edges[pairs[1]] == (0, 1)
    assert g.edges[pairs[3]] == (3, 4)


def test_pairs_plateau_drains_to_exit():
    # plateau of three equal nodes with a single lower exit on the right
    g = WeightedGraph(
        5, ((0, 1), (1, 2), (2, 3), (3, 4)), (5, 5, 5, 0, 0), None
    )
    fg = flooding_from_nodes(g)
    pairs = dict(flooding_pairs(fg))
    assert fg.edges[pairs[2]] == (2, 3)   # exit node pairs with the drop
    assert fg.edges[pairs[1]] == (1, 2)   # parents chain toward the exit
    assert fg.edges[pairs[0]] == (0, 1)


def test_pairs_are_injective_and_equal_weight(rng):
    for _ in range(80):
        fg = random_flooding(rng)
        pairs = flooding_pairs(fg)
        eids = [e for _, e in pairs]
        assert len(set(eids)) == len(eids)
        for i, e in pairs:
            assert fg.edge_weights[e] == fg.node_weights[i]
            assert i in fg.edges[e]


def test_minima_shared_between_carriers(path4_flooding, five_path_flooding):
    assert minima_sets(minima_of_flooding(path4_flooding)) == [
        frozenset({0, 1}),
        frozenset({2, 3}),
    ]
    assert minima_sets(minima_of_flooding(five_path_flooding)) == [
        frozenset({0, 5}),
        frozenset({4, 6}),
    ]


def test_minima_constant_graph():
    g = WeightedGraph(3, ((0, 1), (1, 2)), (4, 4, 4), (4, 4))
    assert minima_of_flooding(g).values == (1, 1, 1)


def test_minima_rejects_non_flooding(path4):
    g = path4.with_weights(node_weights=(1, 1, 2, 2))
    with pytest.raises(InvalidFloodingGraph):
        minima_of_flooding(g)


def test_zero_minima_path4(path4_flooding):
    z = zero_minima(path4_flooding)
    assert z.node_weights == (0, 0, 0, 0)
    assert z.edge_weights == (0, 0)  # both edges are inside minima
    assert validate_flooding(z).bad_edges == ()


def test_zero_minima_keeps_cocycle_edges(five_path_flooding):
    z = zero_minima(five_path_flooding)
    assert z.node_weights == (0, 1, 2, 1, 0, 0, 0)
    assert z.edge_weights == (1, 2, 2, 1, 0, 0)


def test_zero_minima_idempotent(rng):
    for _ in range(40):
        z = zero_minima(random_flooding(rng))
        assert zero_minima(z).node_weights == z.node_weights


def test_zero_minima_rejects_zero_outside():
    # edge relief has its minimum on bc, yet node a already weighs 0
    g = WeightedGraph(3, ((0, 1), (1, 2)), (0, 5, 5), (9, 3))
    with pytest.raises(ZeroNonMinimum):
        zero_minima(g)


# -- structural properties ---------------------------------------------------


def test_erosion_ignores_filtered_edges_exhaustive():
    # min of adjacent edges is unchanged by dropping non-lowest edges:
    # every graph on <= 5 nodes, every weight assignment over {0,1,2}
    import itertools

    for n in range(2, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for r in range(1, len(pairs) + 1):
            for edges in itertools.combinations(pairs, r):
                g = WeightedGraph(n, edges)
                for ef in itertools.product((0, 1, 2), repeat=r):
                    eg = g.with_weights(edge_weights=ef)
                    part = eg.partial(lowest_edge_filter(eg, "lowest_edges"))
                    assert (erode_edges_to_nodes(part, part.edge_weights)
                            == erode_edges_to_nodes(eg, ef))


def test_lowest_nodes_inside_lowest_edges(rng):
    for _ in range(60):
        fg = random_flooding(rng)
        down = lowest_edge_filter(fg, "lowest_edges")
        ddown = lowest_edge_filter(fg, "lowest_nodes")
        assert ddown <= down
        sub = fg.partial(ddown)
        again = {sub.edges[e] for e in lowest_edge_filter(sub, "lowest_nodes")}
        assert again == {fg.edges[e] for e in ddown}


def test_never_ascending_path_to_minimum(rng):
    for _ in range(60):
        fg = random_flooding(rng, 8)
        labeling = minima_of_flooding(fg)
        inside = {i for i, v in enumerate(labeling.values) if v != UNSET}
        nw, adj = fg.node_weights, rows(fg)
        for start in range(fg.num_nodes):
            if start in inside:
                continue
            # brute force: search over all never-ascending steps
            seen, stack, reached = {start}, [start], False
            while stack:
                i = stack.pop()
                if i in inside:
                    reached = True
                    break
                for j, _ in adj[i]:
                    if j not in seen and nw[j] <= nw[i]:
                        seen.add(j)
                        stack.append(j)
            assert reached


def test_partial_graph_stays_flooding(rng):
    # dropping edges is safe while every node keeps a lower-or-equal edge
    for _ in range(60):
        fg = random_flooding(rng)
        nw, ew = fg.node_weights, fg.edge_weights
        keep = set()
        for i, row in enumerate(rows(fg)):
            cands = sorted(e for j, e in row if ew[e] == nw[i])
            if cands:
                keep.add(cands[0])
        assert validate_flooding(fg.partial(keep)).ok


def test_from_nodes_constant_field_makes_one_wide_minimum():
    g = WeightedGraph(4, ((0, 1), (1, 2), (2, 3)), (4, 4, 4, 4), None)
    fg = flooding_from_nodes(g)
    assert fg.num_nodes == 4  # non-isolated minimum, no dummies
    assert fg.edge_weights == (4, 4, 4)
    assert minima_of_flooding(fg).values == (1, 1, 1, 1)


def _pairing_corpus():
    """Flooding graphs pruned at k = 1, 2 and 4: random ones of 8, 12 or
    20 nodes, and pixel graphs of 2-4 gray levels, 4- or 8-connected."""
    rng = random.Random(11)
    graphs = [random_flooding(rng, rng.choice((8, 12, 20))) for _ in range(300)]
    for _ in range(40):
        w, h, levels = rng.randint(6, 24), rng.randint(6, 24), rng.randint(2, 4)
        pixels = [rng.randrange(levels) for _ in range(w * h)]
        graphs.append(flooding_from_nodes(pixel_graph(w, h, pixels, rng.choice((4, 8)))))
    return [prune_to_steepness(fg, k) for fg in graphs for k in (1, 2, 4)]


def _plateau_layers(g):
    """Per node outside the minima, its breadth-first distance to the
    exits of its plateau (0 on an exit); found without the library."""
    nw = g.node_weights
    rows = [[] for _ in range(g.num_nodes)]
    for eid, (u, v) in enumerate(g.edges):
        rows[u].append((v, eid))
        rows[v].append((u, eid))
    dist, done = {}, set()
    for start in range(g.num_nodes):
        if start in done:
            continue
        zone, stack = {start}, [start]
        while stack:
            for j, _ in rows[stack.pop()]:
                if nw[j] == nw[start] and j not in zone:
                    zone.add(j)
                    stack.append(j)
        done |= zone
        layer = [i for i in zone if any(nw[j] < nw[i] for j, _ in rows[i])]
        d = 0
        while layer:  # an empty first layer: the zone is a minimum
            dist.update((i, d) for i in layer)
            layer = {j for i in layer for j, _ in rows[i] if j in zone and j not in dist}
            d += 1
    return rows, dist


def test_pairs_descend_layer_by_layer_toward_the_exits():
    for g in _pairing_corpus():
        rows, dist = _plateau_layers(g)
        nw = g.node_weights
        for tie in ("min-label", "seed:5"):
            pairs = assign_pairs(g, parse_tie(tie))
            assert set(pairs) == set(dist)
            assert len(set(pairs.values())) == len(pairs)
            for i, eid in pairs.items():
                u, v = g.edges[eid]
                assert i in (u, v)
                t = u + v - i
                if dist[i] == 0:
                    lower = [j for j, _ in rows[i] if nw[j] < nw[i]]
                    assert nw[t] < nw[i]
                    assert tie != "min-label" or t == min(lower)
                else:
                    up = [e for j, e in rows[i] if nw[j] == nw[i] and dist.get(j) == dist[i] - 1]
                    assert nw[t] == nw[i] and dist[t] == dist[i] - 1
                    assert tie != "min-label" or eid == min(up)


# -- the node zone walk, memoised and carried to derived graphs --------------


def _fresh(g):
    """The same fields through the public constructor: no memo of any kind."""
    return WeightedGraph(g.num_nodes, g.edges, g.node_weights, g.edge_weights, g.dummies)


def _minima_labels_by_sets(g):
    """The minima labeling as it was built from the ``regional_minima`` sets."""
    labels = [UNSET] * g.num_nodes
    for k, m in enumerate(regional_minima(g, "nodes"), start=1):
        for i in m:
            labels[i] = k
    return tuple(labels)


def _node_weighted_corpus(rng):
    """Node-weighted graphs with isolated nodes, single-node minima, pixel
    reliefs (4- and 8-connected) and dummies from an earlier expansion."""
    for _ in range(150):
        yield random_node_weighted(rng, 12, w_max=4)
    floodings = [random_flooding(rng, 12, connected=c) for c in (False, True) for _ in range(60)]
    floodings += quantized_pixel_floodings(rng, 30)
    for fg in floodings:
        g = WeightedGraph(fg.num_nodes, fg.edges, fg.node_weights, None, fg.dummies)
        yield g
        # one more isolated node: a new single minimum beside the old dummies
        yield WeightedGraph(g.num_nodes + 1, g.edges, g.node_weights + (rng.randrange(5),),
                            None, g.dummies)
    for conn in (4, 8):
        for _ in range(30):
            w, h = rng.randint(2, 9), rng.randint(2, 9)
            yield pixel_graph(w, h, [rng.randrange(4) for _ in range(w * h)], conn)


def test_carried_zone_walk_matches_a_fresh_walk(rng):
    seen_dummies = seen_twins = 0
    for g in _node_weighted_corpus(rng):
        gx, fg = expand_isolated_minima(g), flooding_from_nodes(g)
        seen_dummies += bool(g.dummies)
        seen_twins += gx is not g
        for h in (g, gx, fg):
            assert "_node_walk" in vars(h)  # walked once on g, carried since
            walk = _node_walk(h)
            assert walk == tuple(map(tuple, _zone_walk(_fresh(h), "nodes")))
            assert all(type(z) is int for z in walk[0])
        assert flat_zones(fg, "nodes") == flat_zones(_fresh(fg), "nodes")
        assert regional_minima(fg, "nodes") == regional_minima(_fresh(fg), "nodes")
        # new node weights or fewer edges carry nothing
        assert "_node_walk" not in vars(fg.with_weights(node_weights=fg.node_weights))
        assert "_node_walk" not in vars(fg.partial(range(len(fg.edges))))
    assert seen_dummies and seen_twins


def test_minima_labels_from_the_walk_match_the_minima_sets(rng):
    floodings = [random_flooding(rng, 12, connected=c) for c in (False, True) for _ in range(80)]
    floodings += quantized_pixel_floodings(rng, 30)
    floodings += [flooding_from_nodes(g) for g in _node_weighted_corpus(rng)]
    for fg in floodings:
        want = _minima_labels_by_sets(_fresh(fg))
        for h in (fg, _fresh(fg)):
            values = minima_of_flooding(h).values
            assert values == want
            assert all(type(v) is int for v in values)


def _offenders(g):
    """The offender tuples as ``validate_flooding`` lists them, one
    comparison per carrier."""
    want_e = dilate_nodes_to_edges(g, g.node_weights)
    want_n = erode_edges_to_nodes(g, g.edge_weights)
    bad_e = tuple(i for i, w in enumerate(g.edge_weights) if w != want_e[i])
    bad_n = tuple(i for i, w in enumerate(g.node_weights) if w != want_n[i])
    return bad_e, bad_n


def test_validate_lists_the_offenders_of_a_corrupted_flooding(rng):
    checked = 0
    for _ in range(300):
        fg = random_flooding(rng, 12)
        assert validate_flooding(fg) == FloodingReport(True, (), ())
        if not fg.edges:
            continue
        e, n = rng.randrange(len(fg.edges)), rng.choice(fg.edges)[rng.randrange(2)]
        ew, nw = list(fg.edge_weights), list(fg.node_weights)
        ew[e] += rng.choice((-1, 1)) if ew[e] > 0 else 1
        nw[n] += rng.choice((-1, 1)) if nw[n] > 0 else 1
        for node_w, edge_w in ((fg.node_weights, ew), (nw, fg.edge_weights), (nw, ew)):
            g = WeightedGraph(fg.num_nodes, fg.edges, node_w, edge_w, fg.dummies)
            bad_e, bad_n = _offenders(g)
            # both changes on one edge and its end may cancel out
            assert validate_flooding(g) == FloodingReport(not bad_e and not bad_n, bad_e, bad_n)
            if bad_e or bad_n:
                with pytest.raises(InvalidFloodingGraph) as err:
                    minima_of_flooding(g)
                assert str(err.value) == f"bad edges {bad_e[:8]}, bad nodes {bad_n[:8]}"
                checked += 1
    assert checked > 600


# -- the constructors certify their graphs -----------------------------------


def _flooding_by_filter(g):
    """``flooding_from_edges`` as it was built before: the lowest-edge
    filter, then the erosion over the partial graph."""
    part = g.partial(lowest_edge_filter(g, "lowest_edges"))
    return part.with_weights(node_weights=erode_edges_to_nodes(part, part.edge_weights))


def _gradient_waterfall_graphs(rng, n):
    """A seeded ``n`` x ``n`` 4-connected gradient graph (edges weigh the
    gray difference of their pixels) and the contracted graph of each
    level of its depth-2 waterfall."""
    p = [rng.randrange(32) for _ in range(n * n)]
    edges = [(i, i + 1) for i in range(n * n) if (i + 1) % n] + [(i, i + n) for i in range(n * n - n)]
    g = WeightedGraph(n * n, edges, None, [abs(p[u] - p[v]) for u, v in edges])
    return [g] + [level.contracted for level in build_hierarchy(g, 2).levels]


def test_opening_route_builds_the_filter_route_graph(rng):
    graphs = []
    for _ in range(400):
        g = random_edge_weighted(rng, 12, w_max=rng.choice((2, 6)), connected=rng.random() < 0.5)
        extra = rng.randrange(3)  # isolated nodes, some flagged as dummies
        flags = [i for i in range(g.num_nodes + extra) if rng.random() < 0.2]
        graphs.append(WeightedGraph(g.num_nodes + extra, g.edges, None, g.edge_weights, flags))
    for seed in (1, 2):
        levels = _gradient_waterfall_graphs(random.Random(seed), 24)
        assert len(levels) > 3
        graphs += levels
    for n in range(1, 5):  # every graph of up to 4 nodes, weights in {0, 1, 2}
        pairs = list(itertools.combinations(range(n), 2))
        for r in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, r):
                for ew in itertools.product((0, 1, 2), repeat=r):
                    graphs.append(WeightedGraph(n, edges, None, ew))
    for g in graphs:  # graphs compare nodes, edges, both weights and dummies
        assert flooding_from_edges(g) == _flooding_by_filter(g)


def _certified_corpus(rng):
    """The graphs the three certifying constructors build, from random,
    pixel and node-weighted inputs with isolated nodes, single-node
    minima, weights 0 and TOP and existing dummies."""
    floodings = [random_flooding(rng, 12, connected=c) for c in (False, True) for _ in range(80)]
    floodings += quantized_pixel_floodings(rng, 30)
    floodings += [flooding_from_nodes(g) for g in _node_weighted_corpus(rng)]
    for _ in range(60):
        g = random_node_weighted(rng, 10, w_max=3)
        nw = [rng.choice((0, TOP)) if rng.random() < 0.3 else w for w in g.node_weights]
        floodings.append(flooding_from_nodes(g.with_weights(node_weights=nw)))
    floodings += [flooding_from_edges(g) for g in _gradient_waterfall_graphs(rng, 12) if g.edges]
    return floodings + [prune_to_steepness(fg, k) for fg in floodings for k in (2, 3)]


def test_certified_graphs_pass_the_validator(rng):
    seen_top = 0
    for fg in _certified_corpus(rng):
        assert "_minima" in vars(fg)  # certified by its constructor
        assert validate_flooding(fg).ok
        seen_top += TOP in fg.node_weights
        # the public constructor carries no certificate, so this validates
        assert minima_of_flooding(fg) == minima_of_flooding(_fresh(fg))
    assert seen_top


def test_the_certificate_is_never_carried(rng):
    checked = 0
    for fg in _certified_corpus(rng):
        for labeled in (False, True):
            if labeled:
                minima_of_flooding(fg)
            if fg.edges:
                ew = list(fg.edge_weights)
                ew[rng.randrange(len(ew))] += 1
                with pytest.raises(InvalidFloodingGraph):
                    minima_of_flooding(fg.with_weights(edge_weights=ew))
            nw = list(fg.node_weights)
            nw[rng.randrange(len(nw))] -= 1
            with pytest.raises(InvalidFloodingGraph):
                minima_of_flooding(fg.with_weights(node_weights=nw))
            # a node below TOP with one pair edge: without it the node is no
            # longer the min of its adjacent edges (TOP is the empty min)
            pair_edges = {}
            for eid, ((u, v), w) in enumerate(zip(fg.edges, fg.edge_weights)):
                for i in (u, v):
                    if w == fg.node_weights[i] < TOP:
                        pair_edges.setdefault(i, []).append(eid)
            lone = [eids[0] for eids in pair_edges.values() if len(eids) == 1]
            if lone:
                drop = rng.choice(lone)
                with pytest.raises(InvalidFloodingGraph):
                    minima_of_flooding(fg.partial(e for e in range(len(fg.edges)) if e != drop))
                checked += 1
    assert checked > 500


def test_a_certified_graph_is_its_own_flooding_graph(rng):
    # every waterfall level takes its flooding graph from _from_edges, which
    # hands a certified graph back as it is: on it the erosion and the
    # opening, run on an uncertified copy, change nothing
    from test_geodesics import _one_graph_per_shape

    floodings = _certified_corpus(rng)
    small = []
    for g in _one_graph_per_shape(4):
        small += [flooding_from_nodes(g.with_weights(node_weights=nw))
                  for nw in itertools.product(range(3), repeat=g.num_nodes)]
        small += [flooding_from_edges(g.with_weights(edge_weights=ew))
                  for ew in itertools.product(range(3), repeat=len(g.edges)) if g.edges]
    floodings += small + [prune_to_steepness(fg, k) for fg in small for k in (1, 2)]
    validated = [_fresh(fg) for fg in floodings[::2]]  # two weights, certified by validation
    for fg in validated:
        minima_of_flooding(fg)
    for fg in floodings + validated:
        assert "_minima" in vars(fg)
        assert flooding_from_edges(_fresh(fg)) == fg
        flood, kept = _from_edges(fg)
        assert flood is fg and list(kept) == list(range(len(fg.edges)))
