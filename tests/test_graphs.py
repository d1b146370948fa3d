import random

import pytest

from morphograph import (
    MissingWeights,
    WeightedGraph,
    collapse,
    connected_components,
    contract,
    expand_isolated_minima,
    flat_zones,
    lowest_edge_filter,
    regional_minima,
)
from morphograph.flooding import flooding_from_nodes, minima_of_flooding
from morphograph.formats import image_to_graph, write_pgm
from morphograph.graphs import Contraction
from conftest import random_edge_weighted, random_flooding, random_node_weighted, rows


def test_rejects_self_loops_and_parallels():
    with pytest.raises(ValueError):
        WeightedGraph(2, ((0, 0),))
    with pytest.raises(ValueError):
        WeightedGraph(2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        WeightedGraph(2, ((0, 2),))


def test_connected_components_basic():
    g = WeightedGraph(3, ((0, 1),))
    assert connected_components(g).values == (1, 1, 2)


def test_connected_components_empty_edge_set():
    g = WeightedGraph(4, ((0, 1), (2, 3)))
    assert connected_components(g, restrict=()).values == (1, 2, 3, 4)


def test_connected_components_triangle():
    g = WeightedGraph(3, ((0, 1), (1, 2), (0, 2)))
    assert connected_components(g).values == (1, 1, 1)


def test_flat_zones_nodes():
    g = WeightedGraph(3, ((0, 1), (1, 2)), (2, 2, 7), None)
    zones = flat_zones(g, "nodes")
    assert zones.values == (1, 1, 2)


def test_flat_zones_edges_uniform():
    g = WeightedGraph(4, ((0, 1), (1, 2), (2, 3)), None, (5, 5, 5))
    assert flat_zones(g, "edges").values == (1, 1, 1)


def test_flat_zones_edges_all_distinct(path4):
    # chain check: no two of [1,3,2] are equal, so three singleton zones
    zones = flat_zones(path4, "edges")
    assert zones.values == (1, 2, 3)
    assert zones.carrier == "edges"


def test_unweighted_carriers_are_rejected(triangle):
    with pytest.raises(MissingWeights):
        flat_zones(triangle, "edges")
    with pytest.raises(MissingWeights):
        regional_minima(triangle, "nodes")
    with pytest.raises(MissingWeights):
        lowest_edge_filter(triangle, "lowest_edges")


def test_regional_minima_path4_edges(path4):
    assert regional_minima(path4, "edges") == [frozenset({0}), frozenset({2})]


def test_regional_minima_constant():
    g = WeightedGraph(3, ((0, 1), (1, 2)), None, (4, 4))
    assert regional_minima(g, "edges") == [frozenset({0, 1})]


def test_regional_minima_nodes_five_path(five_path):
    assert regional_minima(five_path, "nodes") == [frozenset({0}), frozenset({4})]


def brute_minima(g, mode):
    """Oracle: every flat zone whose surroundings are all strictly higher."""
    zones, adj = flat_zones(g, mode), rows(g)
    out = []
    for _, zone in sorted(zones.label_sets().items()):
        if mode == "nodes":
            level = g.node_weights[min(zone)]
            nbrs = {
                j for i in zone for j, _ in adj[i] if j not in zone
            }
            if all(g.node_weights[j] > level for j in nbrs):
                out.append(zone)
        else:
            level = g.edge_weights[min(zone)]
            span = {n for e in zone for n in g.edges[e]}
            around = {
                e for i in span for _, e in adj[i] if e not in zone
            }
            if all(g.edge_weights[e] > level for e in around):
                out.append(zone)
    return out


def test_regional_minima_match_bruteforce(rng):
    for _ in range(80):
        g = random_edge_weighted(rng, 8)
        assert regional_minima(g, "edges") == brute_minima(g, "edges")
        h = random_node_weighted(rng, 8)
        assert regional_minima(h, "nodes") == brute_minima(h, "nodes")


def test_regional_minima_disjoint_flat_zones(rng):
    for _ in range(30):
        g = random_edge_weighted(rng, 9)
        minima = regional_minima(g, "edges")
        seen = set()
        zone_sets = {z for _, z in flat_zones(g, "edges").label_sets().items()}
        for m in minima:
            assert not (m & seen)
            seen |= m
            assert m in zone_sets


# -- contraction -------------------------------------------------------------


def test_contract_triangle_edge():
    g = WeightedGraph(3, ((0, 1), (1, 2), (0, 2)), None, (4, 7, 5))
    res = contract(g, [g.edges.index((0, 1))])
    assert res.graph.num_nodes == 2
    assert res.graph.edges == ((0, 1),)
    # parallel edges to node 2 collapse to the minimum of 7 and 5
    assert res.graph.edge_weights == (5,)
    assert res.node_map == (0, 0, 1)


def test_contract_nothing(path4):
    res = contract(path4, [])
    assert res.graph.edges == path4.edges
    assert res.node_map == (0, 1, 2, 3)
    assert res.graph.edge_weights == path4.edge_weights


def test_contract_spanning_tree(path4):
    res = contract(path4, range(3))
    assert res.graph.num_nodes == 1
    assert res.graph.edges == ()


def test_contract_node_count_formula(rng):
    # nodes_out = nodes_in - (nodes spanned by h) + (components of h)
    for _ in range(60):
        g = random_edge_weighted(rng, 12)
        h = [e for e in range(len(g.edges)) if rng.random() < 0.5]
        res = contract(g, h)
        spanned = {n for e in h for n in g.edges[e]}
        parts = connected_components(g, h)
        comp_of_h = len({parts.values[i] for i in spanned})
        assert res.graph.num_nodes == g.num_nodes - len(spanned) + comp_of_h
        assert sorted(set(res.node_map)) == list(range(res.graph.num_nodes))


def test_contract_keeps_minimum_parallel_weight(rng):
    for _ in range(40):
        g = random_edge_weighted(rng, 8)
        h = [e for e in range(len(g.edges)) if rng.random() < 0.4]
        res = contract(g, h)
        for new_eid, (cu, cv) in enumerate(res.graph.edges):
            parallels = [
                g.edge_weights[e]
                for e, (u, v) in enumerate(g.edges)
                if {res.node_map[u], res.node_map[v]} == {cu, cv}
            ]
            assert res.graph.edge_weights[new_eid] == min(parallels)


def test_collapse_merges_nodes_by_label_not_by_edges(path4):
    # nodes 0 and 2 share a label without sharing an edge
    res = collapse(path4, (7, 5, 7, 5))
    assert res.node_map == (0, 1, 0, 1)
    assert res.graph.edges == ((0, 1),)
    assert res.graph.edge_weights == (1,)  # the lowest of three parallels
    assert res.edge_origins == (0,)
    with pytest.raises(ValueError):
        collapse(path4, (1, 1, 2))


def _relabel(labels, rng):
    """The same partition under shuffled label values that do not start at 1."""
    values = sorted(set(labels))
    fresh = dict(zip(values, rng.sample(range(100, 100 + 3 * len(values)), len(values))))
    return [fresh[lab] for lab in labels]


def test_collapse_by_components_is_contract(rng):
    graphs = _sample_graphs(rng)
    graphs += [expand_isolated_minima(g) for g in graphs if g.has_node_weights]
    for g in graphs:
        h = [e for e in range(len(g.edges)) if rng.random() < 0.5]
        labels = connected_components(g, h).values
        want = contract(g, h)
        assert collapse(g, labels) == want
        assert collapse(g, _relabel(labels, rng)) == want
        assert collapse(g, [-lab for lab in labels]) == want


def _collapse_by_pair_keys(g, labels):
    """``collapse`` as it ran before it keyed each new edge by one int, kept
    as its oracle: a (cu, cv) tuple key and a (weight, edge id) tuple value
    per crossing edge, and a scan of every node for dummies."""
    if len(labels) != g.num_nodes:
        raise ValueError("collapse needs one label per node")
    new_id = {}
    node_map = tuple([new_id.setdefault(lab, len(new_id)) for lab in labels])
    count = len(new_id)
    ew = g.edge_weights
    best = {}
    for eid, (u, v) in enumerate(g.edges):
        cu, cv = node_map[u], node_map[v]
        if cu == cv:
            continue
        key = (cu, cv) if cu < cv else (cv, cu)
        w = ew[eid] if ew is not None else 0
        if key not in best or (w, eid) < best[key]:
            best[key] = (w, eid)
    pairs = sorted(best)
    origins = tuple(best[p][1] for p in pairs)
    new_ew = tuple(best[p][0] for p in pairs) if ew is not None else None
    new_dummies = frozenset(range(count)).difference(
        k for i, k in enumerate(node_map) if i not in g.dummies)
    graph = WeightedGraph._derive(count, tuple(pairs), None, new_ew, new_dummies)
    return Contraction(graph, node_map, origins)


def _collapse_cases(rng, count):
    """(graph, labels): seeded graphs of 1-12 nodes with shuffled edge
    lists, weighted from a range of 1-10 values (so parallels often tie) or
    unweighted, with dummy sets from none to all nodes, labeled from a pool
    of negative, zero and sparse values."""
    for m in range(count):
        n = rng.randint(1, 12)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        rng.shuffle(edges)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        top = rng.choice((0, 1, 2, 9))
        ew = None if m % 4 == 0 else [rng.randint(0, top) for _ in edges]
        nw = [rng.randint(0, 3) for _ in range(n)] if m % 3 == 0 else None
        dummies = {i for i in range(n) if rng.random() < rng.choice((0, 0.3, 1))}
        pool = rng.sample(range(-30, 1000), rng.randint(1, n))
        yield WeightedGraph(n, edges, nw, ew, dummies), [rng.choice(pool) for _ in range(n)]


def test_collapse_keeps_what_the_pair_keys_kept(rng):
    # each crossing edge keyed by cu * count + cv, the first edge seen kept
    # unless a later one is strictly lighter: graph, node map and edge
    # origins as the tuple keys gave them
    cases = list(_collapse_cases(rng, 3000))
    assert sum(bool(g.dummies) for g, _ in cases) > 1000
    assert sum(g.edge_weights is None for g, _ in cases) >= 750
    for g, labels in cases:
        got, want = collapse(g, labels), _collapse_by_pair_keys(g, labels)
        assert (got.graph, got.node_map, got.edge_origins) == (
            want.graph, want.node_map, want.edge_origins)
        assert all(type(e) is tuple for e in got.graph.edges)


# -- expansion ---------------------------------------------------------------


def test_expand_attaches_dummy_to_isolated_minimum():
    g = WeightedGraph(3, ((0, 1), (1, 2)), (0, 1, 2), None)
    gx = expand_isolated_minima(g)
    assert gx.num_nodes == 4
    assert (0, 3) in gx.edges
    assert gx.node_weights[3] == 0
    assert gx.dummies == {3}


def test_expand_leaves_wide_minimum_alone():
    g = WeightedGraph(3, ((0, 1), (1, 2)), (2, 2, 7), None)
    assert expand_isolated_minima(g) is g


def test_expand_single_node():
    g = WeightedGraph(1, (), (5,), None)
    gx = expand_isolated_minima(g)
    assert gx.num_nodes == 2 and gx.edges == ((0, 1),)
    assert gx.node_weights == (5, 5)


def test_expand_removes_all_isolated_minima(rng):
    for _ in range(60):
        g = random_node_weighted(rng, 9)
        gx = expand_isolated_minima(g)
        assert all(len(m) > 1 for m in regional_minima(gx, "nodes"))


# -- lowest edge filters -----------------------------------------------------


def test_lowest_edges_path4(path4):
    assert lowest_edge_filter(path4, "lowest_edges") == {0, 2}


def test_lowest_edges_all_equal():
    g = WeightedGraph(3, ((0, 1), (1, 2), (0, 2)), None, (2, 2, 2))
    assert lowest_edge_filter(g, "lowest_edges") == {0, 1, 2}


def test_lowest_nodes_ramp():
    g = WeightedGraph(3, ((0, 1), (1, 2)), (0, 1, 2), None)
    assert lowest_edge_filter(g, "lowest_nodes") == {0, 1}


def test_filter_spans_non_isolated_nodes(rng):
    for _ in range(40):
        g = random_edge_weighted(rng, 10)
        kept = lowest_edge_filter(g, "lowest_edges")
        covered = {n for e in kept for n in g.edges[e]}
        for i, row in enumerate(rows(g)):
            if row:
                assert i in covered


# -- derived graphs and the zone walk ----------------------------------------


def naive_zones(g, mode):
    """Oracle: flat-zone labels by repeated merging, independent of the walk."""
    if mode == "nodes":
        w, ids = g.node_weights, range(g.num_nodes)
        touch = [(u, v) for (u, v) in g.edges]
    else:
        w, ids = g.edge_weights, range(len(g.edges))
        touch = [
            (a, b) for a in ids for b in ids
            if a < b and set(g.edges[a]) & set(g.edges[b])
        ]
    root = list(ids)
    changed = True
    while changed:
        changed = False
        for a, b in touch:
            if w[a] == w[b] and root[a] != root[b]:
                root[a] = root[b] = min(root[a], root[b])
                changed = True
    order = sorted(set(root))
    return tuple(order.index(r) + 1 for r in root)


def naive_minima(g, mode):
    """Oracle: zones with no strictly lower neighbor (node or touching edge)."""
    labels = naive_zones(g, mode)
    out = []
    for lab in range(1, max(labels, default=0) + 1):
        zone = frozenset(i for i, v in enumerate(labels) if v == lab)
        if mode == "nodes":
            level = g.node_weights[min(zone)]
            lower = any(
                g.node_weights[v if u in zone else u] < level
                for (u, v) in g.edges if (u in zone) != (v in zone)
            )
        else:
            level = g.edge_weights[min(zone)]
            span = {n for e in zone for n in g.edges[e]}
            lower = any(
                g.edge_weights[e] < level
                for e, (u, v) in enumerate(g.edges) if u in span or v in span
            )
        if not lower:
            out.append(zone)
    return out


def _quantized_pixel_graphs(rng, count):
    for conn in (4, 8):
        for _ in range(count):
            w, h = rng.randint(1, 9), rng.randint(1, 9)
            pixels = [rng.randrange(4) for _ in range(w * h)]
            yield image_to_graph(write_pgm(w, h, pixels, 3), conn)


def _sample_graphs(rng):
    out = [random_edge_weighted(rng, 12) for _ in range(40)]
    out += [random_node_weighted(rng, 12) for _ in range(40)]
    out += [random_flooding(rng, 12) for _ in range(40)]
    out += _quantized_pixel_graphs(rng, 10)
    return out


def test_zone_walk_matches_naive_reference(rng):
    for g in _sample_graphs(rng):
        for mode in ("nodes", "edges"):
            if mode == "nodes" and not g.has_node_weights:
                continue
            if mode == "edges" and not g.has_edge_weights:
                continue
            assert flat_zones(g, mode).values == naive_zones(g, mode)
            assert regional_minima(g, mode) == naive_minima(g, mode)
        if g.has_node_weights and not g.has_edge_weights:
            fg = flooding_from_nodes(g)
            assert regional_minima(fg, "edges") == naive_minima(fg, "edges")


def _same_as_fresh(d):
    fresh = WeightedGraph(d.num_nodes, d.edges, d.node_weights, d.edge_weights, d.dummies)
    assert d == fresh


def test_derived_graphs_match_a_fresh_construction(rng):
    for g in _sample_graphs(rng):
        _same_as_fresh(g)
        keep = [e for e in range(len(g.edges)) if rng.random() < 0.6]
        _same_as_fresh(g.partial(keep))
        _same_as_fresh(contract(g, keep).graph)
        _same_as_fresh(collapse(g, [rng.randrange(4) for _ in range(g.num_nodes)]).graph)
        shifted = [w + 1 for w in g.node_weights or g.edge_weights]
        if g.has_node_weights:
            _same_as_fresh(g.with_weights(node_weights=shifted))
            _same_as_fresh(expand_isolated_minima(g))
            _same_as_fresh(expand_isolated_minima(g).partial(keep))
        else:
            _same_as_fresh(g.with_weights(edge_weights=shifted))


def test_with_weights_and_partial_inherit_no_caches(rng):
    for _ in range(20):
        fg = random_flooding(rng, 10)
        minima_of_flooding(fg)
        w = fg.with_weights(node_weights=[x + 1 for x in fg.node_weights])
        assert "_minima" not in vars(w)
        p = fg.partial(range(0, len(fg.edges), 2))
        assert "_minima" not in vars(p)
        with pytest.raises(ValueError):
            fg.with_weights(node_weights=fg.node_weights[1:])


def test_partial_rejects_edge_ids_out_of_range(path4):
    for bad in ([3], [-1], [0, 5]):
        with pytest.raises(IndexError):
            path4.partial(bad)
    # contract and connected_components refuse the same ids, with the same error
    for bad in ([-1], [len(path4.edges)]):
        for op in (contract, connected_components):
            with pytest.raises(IndexError, match="^edge id out of range$"):
                op(path4, bad)


def test_public_constructor_rejects_a_negative_node_count():
    with pytest.raises(ValueError, match="negative num_nodes"):
        WeightedGraph(-2)


def test_public_constructor_rejects_bad_ids_and_lengths():
    # complements test_rejects_self_loops_and_parallels
    for edges in (((2, 0), (0, 2)), ((-1, 0),)):
        with pytest.raises(ValueError):
            WeightedGraph(3, edges)
    with pytest.raises(ValueError):
        WeightedGraph(3, ((0, 1),), (1, 2), None)
    with pytest.raises(ValueError):
        WeightedGraph(3, ((0, 1),), None, None, frozenset({3}))


def _per_edge_check(num_nodes, edges):
    """The constructor's edge check before the bulk one, kept as its oracle:
    the normalised edges, or the message of the first offending edge."""
    edges = tuple((u, v) if u < v else (v, u) for (u, v) in edges)
    seen = set()
    for (u, v) in edges:
        if u == v:
            return f"self-loop at node {u}"
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            return f"edge ({u},{v}) leaves node range"
        if (u, v) in seen:
            return f"parallel edge ({u},{v})"
        seen.add((u, v))
    return edges


def test_bulk_edge_check_names_the_same_first_fault(rng):
    faults = 0
    for _ in range(3000):
        n = rng.randint(1, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [(u, v) if rng.random() < 0.5 else (v, u)
                 for u, v in rng.sample(pairs, rng.randint(0, len(pairs)))]
        for _ in range(rng.choice([0, 0, 1, 2, 3])):
            kind, at = rng.randrange(3), rng.randint(0, len(edges))
            if kind == 0:
                u = rng.randrange(-1, n + 1)
                edges.insert(at, (u, u))
            elif kind == 1:
                u, v = rng.randrange(n), rng.choice([-2, -1, n, n + 3])
                edges.insert(at, (u, v) if rng.random() < 0.5 else (v, u))
            elif edges:
                u, v = rng.choice(edges)
                edges.insert(at, (u, v) if rng.random() < 0.5 else (v, u))
        want = _per_edge_check(n, edges)
        if isinstance(want, str):
            faults += 1
            with pytest.raises(ValueError) as exc:
                WeightedGraph(n, tuple(edges))
            assert str(exc.value) == want, edges
        else:
            g = WeightedGraph(n, tuple(edges))
            assert g.edges == want
            # an edge already sorted keeps its tuple
            assert all(e is f for e, f in zip(edges, g.edges) if e[0] < e[1])
    assert 1000 < faults < 2500


def test_constructor_takes_edges_as_any_pairs():
    g = WeightedGraph(3, [[1, 0], [1, 2]], None, [4, 5])
    assert g.edges == ((0, 1), (1, 2)) and all(type(e) is tuple for e in g.edges)
    assert g == WeightedGraph(3, ((0, 1), (1, 2)), None, (4, 5))
    with pytest.raises(ValueError):
        WeightedGraph(3, ((0, 1, 2),))
