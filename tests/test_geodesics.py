import heapq
import itertools
import random
from collections import deque

import pytest

from morphograph import (
    NoRoots,
    UNIT,
    WeightedGraph,
    ZERO,
    core_expanding,
    dijkstra_to_minima,
    flooding_from_edges,
    flooding_from_nodes,
    hq_watershed,
    incidence_matrix,
    lex_compare,
    linear_solve,
    local_prune,
    prune_to_steepness,
    reconstruct_by_integration,
    toll_distances,
)
from morphograph.flooding import minima_of_flooding, minima_sets
from morphograph.geodesics import (
    _seed_minima, _settle, basin_labels, node_erosion, parse_tie,
)
from morphograph.graphs import UNSET
from morphograph.lexalgebra import distances_to_minima, lex_chain
from morphograph.steepness import _upstream, track_ranks
from morphograph.weights import W_MAX
from conftest import (
    constrained_msf_weight,
    quantized_pixel_floodings,
    random_flooding,
    random_node_weighted,
    rows,
)
from test_adjunction import small_graphs


def test_parse_tie():
    assert parse_tie("min-label") is None
    assert parse_tie("seed:99").random() == parse_tie("seed:99").random()
    with pytest.raises(ValueError):
        parse_tie("coin-flip")


def test_dijkstra_all_nodes_inside_minima(path4_flooding):
    dists, labeling = dijkstra_to_minima(path4_flooding, 2)
    assert all(d == UNIT for d in dists)
    assert labeling.values == (1, 1, 2, 2)


def test_dijkstra_five_path_depth2(five_path_flooding):
    dists, labeling = dijkstra_to_minima(five_path_flooding, 2)
    ref, _ = distances_to_minima(five_path_flooding, 2)
    assert dists == ref
    assert dists[2] == (2, 1)  # the crest is equidistant from both minima
    assert labeling.values[2] == 1  # min-label tie


def test_dijkstra_matches_closure(rng):
    for _ in range(60):
        fg = random_flooding(rng)
        k = rng.randint(1, 3)
        ref, _ = distances_to_minima(fg, k)
        got, _ = dijkstra_to_minima(fg, k)
        assert got == ref


def test_dijkstra_depth1_is_prim_forest_growth(rng):
    # settled depth-1 distances are node weights: their sum is the weight
    # of a minimum spanning forest rooted in the minima
    for _ in range(40):
        fg = random_flooding(rng, connected=True)
        dists, _ = dijkstra_to_minima(fg, 1)
        labels = minima_of_flooding(fg).values
        nw = fg.node_weights
        settled = sum(
            dists[i][0] for i in range(fg.num_nodes) if labels[i] == UNSET
        )
        sets = minima_sets(minima_of_flooding(fg))
        internal = sum((len(m) - 1) * nw[min(m)] for m in sets)
        assert settled + internal == constrained_msf_weight(fg)


def test_core_expanding_matches_dijkstra(rng):
    for _ in range(100):
        fg = random_flooding(rng)
        k = rng.randint(1, 3)
        ref, _ = dijkstra_to_minima(fg, k)
        got, _, enqueued = core_expanding(fg, k)
        assert got == ref
        assert enqueued == fg.num_nodes


def _bucket_queue_hq(g):
    """``hq_watershed`` as it ran before it became depth-2 core expansion,
    kept as its oracle: FIFO buckets keyed by node weight with the minima
    pinned to 0, each extracted node labeling every unlabeled neighbor."""
    labels = list(minima_of_flooding(g).values)
    nw = [w if labels[i] == UNSET else 0 for i, w in enumerate(g.node_weights)]
    buckets, levels, adj = {}, [], rows(g)

    def push(i):
        if nw[i] not in buckets:
            buckets[nw[i]] = deque()
            heapq.heappush(levels, nw[i])
        buckets[nw[i]].append(i)

    for i, lab in enumerate(labels):
        if lab != UNSET:
            push(i)
    while levels:
        bucket = buckets[levels[0]]
        if not bucket:
            del buckets[heapq.heappop(levels)]
            continue
        j = bucket.popleft()
        for i, _ in adj[j]:
            if labels[i] == UNSET:
                labels[i] = labels[j]
                push(i)
    return tuple(labels)


def test_core_expanding_depth2_matches_hq(rng):
    corpus = [random_flooding(rng, 12, connected=c) for c in (True, False) for _ in range(60)]
    corpus += quantized_pixel_floodings(rng, 30)
    for fg in corpus:
        _, labeling, _ = core_expanding(fg, 2)
        hq = hq_watershed(fg)
        # the bucket queue of the old loop orders nodes as the depth-1
        # ranks and the FIFO order within each rank bucket do, so the full
        # labelings coincide
        assert hq.values == labeling.values == _bucket_queue_hq(fg)


def _attaining_minima(fg, k):
    """Per node, the labels of the minima attaining its depth-k distance,
    ascending (empty where none does)."""
    sets = minima_sets(minima_of_flooding(fg))
    a = incidence_matrix(fg, k)
    b = [[ZERO] * len(sets) for _ in range(fg.num_nodes)]
    for c, nodes in enumerate(sets):
        for m in nodes:
            b[m][c] = UNIT
    out = []
    for row in linear_solve(a, b, k, "jacobi"):
        best, winners = ZERO, []
        for c, x in enumerate(row):
            cmp = lex_compare(x, best)
            if cmp < 0:
                best, winners = x, [c + 1]
            elif cmp == 0 and best is not ZERO:
                winners.append(c + 1)
        out.append(winners)
    return out


def _sole_minimum(fg, k):
    """Per node, the label of the one minimum attaining its depth-k
    distance, or None where several or none attain it."""
    return [w[0] if len(w) == 1 else None for w in _attaining_minima(fg, k)]


def test_label_agreement_where_distance_unique(rng):
    # wherever exactly one minimum attains the depth-k distance, all three
    # algorithms must name it
    for _ in range(40):
        fg = random_flooding(rng, 9)
        k = rng.randint(1, 3)
        _, lab_d = dijkstra_to_minima(fg, k)
        _, lab_c, _ = core_expanding(fg, k)
        lab_h = hq_watershed(fg).values if k == 2 else None
        for i, sole in enumerate(_sole_minimum(fg, k)):
            if sole is not None:
                assert lab_d.values[i] == sole
                assert lab_c.values[i] == sole
                if lab_h is not None:
                    assert lab_h[i] == sole


def _one_graph_per_shape(max_nodes):
    """The first labelled graph of each isomorphism class of ``small_graphs``."""
    seen = set()
    for g in small_graphs(max_nodes):
        n = g.num_nodes
        shape = min(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in g.edges)
                    for p in itertools.permutations(range(n)))
        if (n, tuple(shape)) not in seen:
            seen.add((n, tuple(shape)))
            yield g


DENSE_METHODS = ("closure", "jacobi", "gauss_seidel", "jordan", "gondran")


def test_every_small_flooding_prunes_and_measures_alike_in_every_flavour():
    # one graph per shape on up to 4 nodes, weighted on its nodes and, if it
    # has an edge, on its edges in {0, 1, 2} in every way: complete up to
    # isomorphism.  Local pruning is depth pruning, and the seven distance
    # flavours agree, on distances and on every label one minimum decides
    shapes = list(_one_graph_per_shape(4))
    assert len(shapes) == 18
    cases = []
    for g in shapes:
        cases += [(g.num_nodes, flooding_from_nodes(g.with_weights(node_weights=nw)))
                  for nw in itertools.product(range(3), repeat=g.num_nodes)]
        if g.edges:
            cases += [(g.num_nodes, flooding_from_edges(g.with_weights(edge_weights=ew)))
                      for ew in itertools.product(range(3), repeat=len(g.edges))]
    assert len(cases) == 2298
    for n, fg in cases:
        for refused in (prune_to_steepness, dijkstra_to_minima, core_expanding):
            with pytest.raises(ValueError, match="depth must be >= 1$"):
                refused(fg, 0)
        for method in DENSE_METHODS:
            with pytest.raises(ValueError, match="^depth must be >= 1$"):
                distances_to_minima(fg, 0, method)
        for k in range(1, n + 2):
            assert local_prune(fg, k - 1).edges == prune_to_steepness(fg, k).edges
            dists, labelings = zip(dijkstra_to_minima(fg, k), core_expanding(fg, k)[:2],
                                   *(distances_to_minima(fg, k, m) for m in DENSE_METHODS))
            assert all(d == dists[0] for d in dists)
            for i, sole in enumerate(_sole_minimum(fg, k)):
                if sole is not None:
                    assert all(lab.values[i] == sole for lab in labelings)


def test_hq_five_path_documented_tie(five_path_flooding):
    # the crest is flooded first by the wavefront of the lower-id minimum
    assert hq_watershed(five_path_flooding).values[:5] == (1, 1, 1, 2, 2)


def test_hq_single_minimum():
    g = WeightedGraph(4, ((0, 1), (1, 2), (2, 3)), (0, 0, 1, 2), None)
    fg = flooding_from_nodes(g)
    assert set(hq_watershed(fg).values) == {1}


def test_hq_plateau_drains_one_side():
    g = WeightedGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4)), (0, 0, 5, 5, 5), None)
    fg = flooding_from_nodes(g)
    assert set(hq_watershed(fg).values) == {1}


def test_hq_plateau_split_matches_bfs_oracle():
    # minima at both ends, a 5-node plateau between them
    g = WeightedGraph(
        7,
        tuple((i, i + 1) for i in range(6)),
        (0, 5, 5, 5, 5, 5, 0),
        None,
    )
    fg = flooding_from_nodes(g)
    labels = hq_watershed(fg).values
    # BFS distance to the plateau's lower boundary decides each side
    assert labels[1] == labels[2] == 1
    assert labels[4] == labels[5] == 2
    assert labels[3] == 1  # equidistant: first wavefront in FIFO order


def test_seeded_ties_stay_valid(five_path_flooding):
    seen = set()
    for seed in range(6):
        _, labeling = dijkstra_to_minima(five_path_flooding, 2, f"seed:{seed}")
        assert labeling.values[2] in (1, 2)
        seen.add(labeling.values[2])
    assert seen == {1, 2}  # both members of the tie family appear


# -- toll distances ----------------------------------------------------------


TOLL_FIXTURE = WeightedGraph(
    9,
    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 6), (6, 7), (7, 5), (1, 8), (8, 5)),
    (0, 1, 1, 2, 2, 0, 3, 4, 6),
    None,
)


def test_toll_fixture_cheapest_chain_pays_six():
    dists, _ = toll_distances(TOLL_FIXTURE, [0], mode="toll")
    assert dists[5] == 6  # 1+1+2+2 through the cheap towns


def test_toll_root_cost_modes():
    g = WeightedGraph(2, ((0, 1),), (4, 7), None)
    inclusive, _ = toll_distances(g, [0], mode="toll")
    assert inclusive[0] == 4 and inclusive[1] == 11
    exclusive, _ = toll_distances(g, [0], mode="toll", include_root_cost=False)
    assert exclusive[0] == 0 and exclusive[1] == 7


def test_toll_requires_roots(five_path):
    with pytest.raises(NoRoots):
        toll_distances(five_path, [])


def test_toll_refuses_roots_outside_the_node_range():
    g = WeightedGraph(4, ((0, 1), (1, 2), (2, 3)), (3, 1, 2, 0), None)
    for roots in ([-1], [9], [0, {1, 4}]):
        with pytest.raises(IndexError, match="^root outside the node range$"):
            toll_distances(g, roots)


def test_topographic_distance_along_steepest_descent():
    # a(0) - b(1) - c(3): the only descent from c runs through b
    g = WeightedGraph(3, ((0, 1), (1, 2)), (0, 1, 3), None)
    dists, _ = toll_distances(g, [0], mode="topographic")
    assert dists == [0, 1, 3]  # each node's distance equals its altitude


def test_toll_distances_visit_neighbors_in_node_order():
    # on a plateau every topographic step costs 0, so the order in which a
    # node's neighbors are relaxed decides the labels; it must not follow
    # the order of the edge list
    for edges in (((0, 2), (0, 3), (1, 2), (1, 4), (2, 4)),
                  ((2, 4), (1, 4), (0, 2), (0, 3), (1, 2))):
        g = WeightedGraph(5, edges, (1,) * 5, None)
        dists, labeling = toll_distances(g, [3, 1], mode="topographic")
        assert labeling.values == (1, 2, 1, 1, 1)
        assert dists == [1] * 5


def test_toll_distances_ignore_the_order_of_the_edge_list(rng):
    # dense graphs of two levels tie often, and a sorted edge list visits
    # each node's neighbors in node order
    for _ in range(300):
        g = random_node_weighted(rng, 10, w_max=1, edge_prob=0.6)
        edges = list(g.edges)
        rng.shuffle(edges)
        shuffled = WeightedGraph(g.num_nodes, edges, g.node_weights, None)
        roots = [rng.randrange(g.num_nodes) for _ in range(rng.randint(2, 4))]
        for mode, root_cost in (("toll", True), ("toll", False), ("topographic", True)):
            assert (toll_distances(shuffled, roots, mode, root_cost)
                    == toll_distances(g, roots, mode, root_cost))
        assert reconstruct_by_integration(shuffled) == reconstruct_by_integration(g)


def test_topographic_cost_definition(rng):
    for _ in range(30):
        g = random_node_weighted(rng, 8)
        eroded = node_erosion(g, g.node_weights)
        assert all(
            e == min([g.node_weights[i]] + [g.node_weights[j] for j, _ in row])
            for i, (e, row) in enumerate(zip(eroded, rows(g)))
        )


def test_depth2_geodesics_are_minimal_topographic_paths(rng):
    # with the minima pinned at 0, following any depth-2 minimal descent
    # from a node is a steepest-descent path, and its topographic length
    # equals the node's altitude, which brute force confirms is minimal
    from morphograph import zero_minima
    from morphograph.steepness import minimal_track_edges

    for _ in range(40):
        fg = random_flooding(rng, 8)
        z = zero_minima(fg)
        cand = minimal_track_edges(z, 2)
        nw = z.node_weights
        eroded = node_erosion(z, nw)
        groups = minima_sets(minima_of_flooding(z))
        dists, _ = toll_distances(z, groups, mode="topographic")
        inside = {i for m in groups for i in m}

        # hop count to the minima along candidate edges (plateau ties may
        # point sideways; walking down this count always progresses)
        nxt_of = {}
        for i, eids in cand.items():
            if i is not None:
                nxt_of[i] = sorted(
                    (set(z.edges[e]) - {i}).pop() for e in eids
                )
        hops = {i: 0 for i in inside}
        changed = True
        while changed:
            changed = False
            for i, outs in nxt_of.items():
                best = min((hops[j] for j in outs if j in hops), default=None)
                if best is not None and hops.get(i) != best + 1:
                    hops[i] = best + 1
                    changed = True

        for start, row in enumerate(rows(z)):
            if start in inside or not row:
                continue
            i, total = start, nw[start] - eroded[start]
            while i not in inside:
                i = min(j for j in nxt_of[i] if hops.get(j) == hops[i] - 1)
                if i not in inside:
                    total += nw[i] - eroded[i]
            total += nw[i]  # the minimum's altitude starts the integral
            assert total == nw[start] == dists[start]


def test_reconstruct_constant_field():
    g = WeightedGraph(3, ((0, 1), (1, 2)), (4, 4, 4), None)
    tolls, labeling = reconstruct_by_integration(g)
    assert tolls == (4, 4, 4)
    assert labeling.values == (1, 1, 1)


def test_reconstruct_five_path(five_path):
    tolls, labeling = reconstruct_by_integration(five_path)
    assert tolls == (0, 1, 1, 1, 0)
    assert labeling.values == (1, 1, 1, 2, 2)  # crest tie resolves to label 1


def _reconstruct_by_two_erosions(g):
    """``reconstruct_by_integration`` as it was when it eroded the field
    for its tolls and ``toll_distances(..., "topographic")`` eroded it
    again: the oracle of the one-erosion body."""
    from morphograph import regional_minima

    nw = g.node_weights
    groups = regional_minima(g, "nodes")
    span = {i for m in groups for i in m}
    eroded = node_erosion(g, nw)
    tolls = tuple(nw[i] if i in span else nw[i] - eroded[i] for i in range(g.num_nodes))
    return tolls, toll_distances(g, groups, mode="topographic")[1]


def test_reconstruct_erodes_once_and_matches_two_erosions(rng, monkeypatch):
    # the tolls stand in for the topographic costs, so the field is eroded
    # once; tolls and labels must be those of the two-erosion body, also on
    # two-level fields, whose plateaus tie, and with zero-weight minima
    import morphograph.geodesics as geodesics

    calls = []
    monkeypatch.setattr(geodesics, "node_erosion", lambda g, n: calls.append(n) or node_erosion(g, n))
    for trial in range(400):
        g = random_node_weighted(rng, 12, w_max=(1, 3, 9)[trial % 3], edge_prob=0.3 + trial % 4 / 10)
        want = _reconstruct_by_two_erosions(g)
        calls.clear()
        assert reconstruct_by_integration(g) == want
        assert len(calls) == 1


def test_reconstruct_roundtrip_random(rng):
    from morphograph import regional_minima

    for _ in range(200):
        g = random_node_weighted(rng, 10)
        tolls, labeling = reconstruct_by_integration(g)  # asserts internally
        dists, _ = toll_distances(g, regional_minima(g, "nodes"), mode="topographic")
        assert all(
            d is None or d == g.node_weights[i] for i, d in enumerate(dists)
        )


def _tuple_keyed(g, k, tie, core):
    """``core_expanding`` (core=True) or ``dijkstra_to_minima`` as they ran
    before track ranks, heaping on distance tuples; kept as their oracle.
    Returns (distances, labels, enqueue count)."""
    labels = list(minima_of_flooding(g).values)
    dist = [None if lab == UNSET else UNIT for lab in labels]
    settled = [lab != UNSET for lab in labels]
    inside = [i for i, s in enumerate(settled) if s]
    rng = parse_tie(tie)
    nw, ew, adj = g.node_weights, g.edge_weights, rows(g)
    counter, heap, pushes = itertools.count(), [], []
    if core:
        def push(t):
            sub = rng.random() if rng is not None else 0.0
            heapq.heappush(heap, (dist[t][:k - 1], sub, next(counter), t))
            pushes.append(t)

        for m in inside:
            push(m)
        while heap:
            t = heapq.heappop(heap)[3]
            for s, eid in adj[t]:
                if not settled[s] and ew[eid] == nw[s]:
                    settled[s] = True
                    dist[s] = lex_chain((nw[s],), dist[t][:k - 1], k)
                    labels[s] = labels[t]
                    push(s)
        return dist, labels, len(pushes)

    best, ties = {}, {}

    def relax(l):
        for j, eid in adj[l]:
            if settled[j] or ew[eid] != nw[j]:
                continue
            est = lex_chain((nw[j],), dist[l], k)
            cur = best.get(j)
            if cur is None or est < cur:
                best[j], labels[j], ties[j] = est, labels[l], 1
                heapq.heappush(heap, (est, next(counter), j))
            elif est == cur and labels[l] != labels[j]:
                ties[j] += 1
                if rng is None:
                    labels[j] = min(labels[j], labels[l])
                elif rng.random() < 1.0 / ties[j]:
                    labels[j] = labels[l]

    for m in inside:
        relax(m)
    while heap:
        est, _, j = heapq.heappop(heap)
        if not settled[j] and est == best[j]:
            settled[j], dist[j] = True, est
            relax(j)
    return dist, labels, None


def test_basin_labels_are_the_labels_of_the_distance_solvers():
    rng = random.Random(41)
    corpus = [random_flooding(rng, rng.choice((8, 12, 20))) for _ in range(120)]
    corpus += quantized_pixel_floodings(rng, 20)
    for fg in corpus:
        hq = hq_watershed(fg)
        for k in range(1, 6):
            for tie in ("min-label", f"seed:{rng.randrange(2**32)}"):
                dist, labeling, enqueued = core_expanding(fg, k, tie)
                assert (dist, list(labeling.values), enqueued) == _tuple_keyed(fg, k, tie, True)
                assert basin_labels(fg, k, "core", tie) == labeling
                dist, labeling = dijkstra_to_minima(fg, k, tie)
                assert (dist, list(labeling.values), None) == _tuple_keyed(fg, k, tie, False)
                assert basin_labels(fg, k, "dijkstra", tie) == labeling
                assert basin_labels(fg, k, "hq", tie) == hq
    with pytest.raises(ValueError, match="unknown watershed algorithm"):
        basin_labels(corpus[0], 2, "prim")


def _heap_settle_dijkstra(g, k, rng):
    """The labels, parents and settle order of ``dijkstra_to_minima`` as
    it ran on a heap of (key, counter, node), kept as the oracle of the
    bucket sweep."""
    labels, parent, order = _seed_minima(g)
    settled = [p is not None for p in parent]
    rank, rows = _upstream(g, k)
    stride = max(rank, default=0) + 1
    nw = g.node_weights
    ties, counter, heap = {}, itertools.count(), []

    def relax(l):
        for j in rows[l]:
            if settled[j]:
                continue
            if parent[j] is None:
                labels[j], parent[j] = labels[l], l
                ties[j] = 1
                heapq.heappush(heap, (nw[j] * stride + rank[l], next(counter), j))
            elif labels[l] != labels[j]:
                ties[j] += 1
                if rng is None:
                    if labels[l] < labels[j]:
                        labels[j] = labels[l]
                elif rng.random() < 1.0 / ties[j]:
                    labels[j] = labels[l]

    for m in order:
        relax(m)
    while heap:
        j = heapq.heappop(heap)[2]
        settled[j] = True
        order.append(j)
        relax(j)
    return labels, parent, order


def _heap_settle_core(g, k, rng):
    """The labels, parents and settle order of ``core_expanding`` as it
    ran on a heap of (rank, draw, counter, node), kept as the oracle of
    the bucket sweep."""
    labels, parent, order = _seed_minima(g)
    rank, rows = _upstream(g, k)
    counter, heap = itertools.count(), []

    def push(t):
        sub = rng.random() if rng is not None else 0.0
        heapq.heappush(heap, (rank[t], sub, next(counter), t))

    for m in order:
        push(m)
    while heap:
        t = heapq.heappop(heap)[3]
        for s in rows[t]:
            if parent[s] is None:
                parent[s], labels[s] = t, labels[t]
                order.append(s)
                push(s)
    return labels, parent, order


def _dense(xs):
    at = {x: r for r, x in enumerate(sorted(set(xs)))}
    return [at[x] for x in xs]


def test_bucket_sweep_settles_as_the_heap_kernels():
    rng = random.Random(1991)
    corpus = [random_flooding(rng, rng.choice((8, 12, 20)), connected=c)
              for c in (True, False) for _ in range(60)]
    corpus += quantized_pixel_floodings(rng, 20)
    for fg in corpus:
        for k in (1, 2, 3, 5, fg.num_nodes + 2):
            # the Dijkstra buckets are the depth-k track ranks
            assert _dense(track_ranks(fg, k)) == _upstream(fg, k, deeper=True)[0]
            for seed in (None, rng.randrange(2**32)):
                def tie():
                    return None if seed is None else random.Random(seed)
                assert _settle(fg, k, tie(), on_pop=False) == _heap_settle_core(fg, k, tie())
                assert _settle(fg, k, tie(), on_pop=True) == _heap_settle_dijkstra(fg, k, tie())


def _lifted(fg):
    """``fg`` with every weight moved up near W_MAX by one increasing map,
    so its ranks keep their order and spread over about 2**32 values."""
    top = max(fg.node_weights + fg.edge_weights, default=0)

    def lift(ws):
        return [W_MAX - (top - w) * 2**20 for w in ws]

    hg = fg.with_weights(lift(fg.node_weights), lift(fg.edge_weights))
    assert 0 <= min(hg.node_weights) and max(hg.edge_weights, default=0) <= W_MAX
    return hg


def test_bucket_sweep_takes_weights_up_to_w_max():
    # depth-1 ranks are weight + 1, so the buckets must not be sized by them
    rng = random.Random(2**32)
    corpus = [flooding_from_nodes(WeightedGraph(2, [(0, 1)], (W_MAX, 0)))]
    corpus += [random_flooding(rng, 12, connected=c) for c in (True, False) for _ in range(30)]
    corpus += quantized_pixel_floodings(rng, 5)
    for fg in corpus:
        hg = _lifted(fg) if max(fg.node_weights) < W_MAX else fg
        heap2 = _heap_settle_core(hg, 2, None)[0]
        assert list(hq_watershed(hg).values) == heap2
        assert list(basin_labels(hg, 2, "hq").values) == heap2
        assert list(core_expanding(hg, 2)[1].values) == heap2
        for k in (1, 2, 3):
            for seed in (None, rng.randrange(2**32)):
                def tie():
                    return None if seed is None else random.Random(seed)
                core = _heap_settle_core(hg, k, tie())
                dijkstra = _heap_settle_dijkstra(hg, k, tie())
                assert _settle(hg, k, tie(), on_pop=False) == core == _heap_settle_core(fg, k, tie())
                assert _settle(hg, k, tie(), on_pop=True) == dijkstra
                assert list(basin_labels(hg, k, "core", tie()).values) == core[0]
                assert list(basin_labels(hg, k, "dijkstra", tie()).values) == dijkstra[0]
