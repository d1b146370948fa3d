import itertools
import math
import random

import pytest

from morphograph import (
    WeightedGraph,
    erode_weights,
    flooding_from_edges,
    flooding_from_nodes,
    is_steep,
    local_prune,
    local_prune_step,
    prune_to_steepness,
    validate_flooding,
    zero_minima,
)
from morphograph.flooding import _flooding_pairs, minima_of_flooding
from morphograph.formats import image_to_graph, write_pgm
from morphograph.graphs import UNSET, lowest_edge_filter
from morphograph.steepness import (
    _inner_edges, _local_survivors, _upstream, minimal_track_edges, track_ranks,
)
from morphograph.weights import TOP
from conftest import quantized_pixel_floodings, random_edge_weighted, random_flooding, rows


def test_prune_depth_one_is_identity(rng):
    for _ in range(40):
        fg = random_flooding(rng)
        assert set(prune_to_steepness(fg, 1).edges) == set(fg.edges)


def test_prune_depth_two_is_lowest_neighbor_filter(rng):
    # with the minima pinned at 0, depth 2 keeps edges to lowest neighbors
    for _ in range(80):
        fg = random_flooding(rng)
        z = zero_minima(fg)
        want = {fg.edges[e] for e in lowest_edge_filter(z, "lowest_nodes")}
        assert set(prune_to_steepness(fg, 2).edges) == want


def test_prune_depth_two_plain_filter_on_zero_level_minima(five_path_flooding):
    # minima already sit at level 0 here, so no re-weighting is involved
    fg = five_path_flooding
    want = {fg.edges[e] for e in lowest_edge_filter(fg, "lowest_nodes")}
    assert set(prune_to_steepness(fg, 2).edges) == want


def test_prune_five_path_keeps_symmetric_tie(five_path_flooding):
    for k in (2, 3, 5):
        pruned = prune_to_steepness(five_path_flooding, k)
        assert (1, 2) in pruned.edges and (2, 3) in pruned.edges


def test_prune_breaks_asymmetric_plateau():
    from morphograph import flooding_from_nodes

    # plateau 1..4 at level 5; node 2 is one step from the left exit but
    # two from the right one, which only depth 3 can see
    g = WeightedGraph(
        6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)), (0, 5, 5, 5, 5, 0), None
    )
    fg = flooding_from_nodes(g)
    p2 = prune_to_steepness(fg, 2)
    assert (1, 2) in p2.edges and (2, 3) in p2.edges  # tied at depth 2
    p3 = prune_to_steepness(fg, 3)
    assert (1, 2) in p3.edges and (2, 3) not in p3.edges


def test_pruned_graph_still_floods(rng):
    for _ in range(60):
        fg = random_flooding(rng)
        for k in (2, 3):
            assert validate_flooding(prune_to_steepness(fg, k)).ok


def test_every_outside_node_keeps_an_edge(rng):
    for _ in range(60):
        fg = random_flooding(rng)
        pruned = prune_to_steepness(fg, 3)
        labels = minima_of_flooding(fg).values
        for lab, row, kept in zip(labels, rows(fg), rows(pruned)):
            if lab == UNSET and row:
                assert kept


def test_prune_nesting_and_composition(rng):
    for _ in range(50):
        fg = random_flooding(rng, 8)
        sets = {k: set(prune_to_steepness(fg, k).edges) for k in (1, 2, 3, 4)}
        assert sets[4] <= sets[3] <= sets[2] <= sets[1]
        for k, l in ((2, 3), (3, 2), (4, 2)):
            lhs = set(prune_to_steepness(prune_to_steepness(fg, l), k).edges)
            assert lhs == sets[max(k, l)]


def test_pruning_keeps_minima_and_minimal_track_endpoints(rng):
    # prune_to_steepness hands its minima to the pruned graph and the
    # watershed propagates along the tracks of the unpruned graph; both
    # rest on these two facts, checked here on an uncached copy.
    samples = [random_flooding(rng) for _ in range(60)]
    samples += quantized_pixel_floodings(rng, 8)
    for fg in samples:
        for k in range(1, 6):
            p = prune_to_steepness(fg, k)
            pruned = WeightedGraph(p.num_nodes, p.edges, p.node_weights, p.edge_weights, p.dummies)
            assert minima_of_flooding(pruned) == minima_of_flooding(fg)
            on_g = minimal_track_edges(fg, k)
            on_p = minimal_track_edges(pruned, k)
            assert on_g.keys() == on_p.keys()
            for i, eids in on_g.items():
                assert {fg.edges[e] for e in eids} == {pruned.edges[e] for e in on_p[i]}


def test_erode_on_zeroed_path4(path4_flooding):
    z = zero_minima(path4_flooding)
    e1 = erode_weights(z)
    assert e1.node_weights == (0, 0, 0, 0)
    assert e1.edge_weights == (0, 0)


def test_erode_is_absorbing_at_zero():
    g = WeightedGraph(3, ((0, 1), (1, 2)), (0, 0, 0), (0, 0))
    assert erode_weights(g, times=3).node_weights == (0, 0, 0)


def test_erode_glides_values_upward(five_path_flooding):
    z = zero_minima(five_path_flooding)
    e1 = erode_weights(z)
    # the 0 of each minimum climbed one pair up its track
    assert e1.node_weights[1] == 0 and e1.node_weights[3] == 0
    assert e1.node_weights[2] == 1


def test_erosion_of_pruned_graph_stays_flooding(rng):
    for _ in range(50):
        fg = random_flooding(rng)
        k = 3
        z = zero_minima(prune_to_steepness(fg, k))
        for _l in range(k - 1):
            z = erode_weights(z)
            report = validate_flooding(z)
            assert not report.bad_edges
            adj = rows(z)
            assert all(not adj[i] for i in report.bad_nodes)


def test_local_step_path4(path4_flooding):
    stepped = local_prune_step(zero_minima(path4_flooding))
    assert set(stepped.edges) == set(path4_flooding.edges)


def test_local_step_constant():
    g = WeightedGraph(3, ((0, 1), (1, 2)), (4, 4, 4), (4, 4))
    assert set(local_prune_step(g).edges) == set(g.edges)


def test_local_step_drops_non_lowest_branch():
    from morphograph import flooding_from_nodes

    # nodes 1 and 2 both have a strictly lower neighbor, the plateau edge goes
    g = flooding_from_nodes(
        WeightedGraph(4, ((0, 1), (1, 2), (2, 3)), (0, 3, 3, 0), None)
    )
    stepped = local_prune_step(zero_minima(g))
    assert (1, 2) not in stepped.edges
    assert (0, 1) in stepped.edges and (2, 3) in stepped.edges


def test_local_prune_zero_is_identity(rng):
    for _ in range(30):
        fg = random_flooding(rng)
        out = local_prune(fg, 0)
        assert out.edges == fg.edges
        assert out.edge_weights == fg.edge_weights


def test_local_prune_matches_definition(rng):
    for _ in range(150):
        fg = random_flooding(rng)
        for k in (2, 3, 4):
            assert set(local_prune(fg, k - 1).edges) == set(
                prune_to_steepness(fg, k).edges
            )


def test_local_prune_stabilizes(rng):
    for _ in range(30):
        fg = random_flooding(rng, 8)
        prev = None
        for m in range(1, 12):
            cur = set(local_prune(fg, m).edges)
            if prev == cur and m > 8:
                break
            prev = cur
        assert set(local_prune(fg, 12).edges) == prev


def test_is_steep_depth_one(rng):
    for _ in range(20):
        assert is_steep(random_flooding(rng), 1)


def test_is_steep_roundtrip(rng):
    for _ in range(50):
        fg = random_flooding(rng)
        assert is_steep(prune_to_steepness(fg, 3), 3)


def test_is_steep_counterexample():
    from morphograph import flooding_from_nodes

    # the plateau edge between the two branches is not depth-2 steep
    g = flooding_from_nodes(
        WeightedGraph(4, ((0, 1), (1, 2), (2, 3)), (0, 3, 3, 0), None)
    )
    assert not is_steep(g, 2)
    assert is_steep(prune_to_steepness(g, 2), 2)


def test_local_prune_reuses_the_cached_minima(rng, monkeypatch):
    # the minima pinned at 0 come from the cached node labeling: one node
    # zone walk, and no further walk over either carrier
    from morphograph import flooding, graphs

    calls = []
    walk = graphs._zone_walk
    monkeypatch.setattr(
        graphs, "_zone_walk", lambda g, mode: calls.append(mode) or walk(g, mode)
    )
    for _ in range(10):
        fg = random_flooding(rng, 12)
        # the same fields without the zone walk a derived graph inherits
        fg = WeightedGraph(fg.num_nodes, fg.edges, fg.node_weights, fg.edge_weights, fg.dummies)
        calls.clear()
        flooding.minima_of_flooding(fg)
        local_prune(fg, 2)
        assert calls == ["nodes"]
        # the labeling's nodes are the span zero_minima finds on its own
        labels = flooding.minima_of_flooding(fg).values
        span = {i for i, v in enumerate(labels) if v != UNSET}
        assert span == {i for i, w in enumerate(zero_minima(fg).node_weights) if w == 0}


def _voronoi_flooding(rng):
    """A quantized Voronoi relief of 10-24 px a side, 4- or 8-connected."""
    w, h = rng.randint(10, 24), rng.randint(10, 24)
    sites = [(rng.randrange(w), rng.randrange(h)) for _ in range(rng.randint(2, 6))]
    pixels = [min(7, math.isqrt(min((x - a) ** 2 + (y - b) ** 2 for a, b in sites))
                  + rng.randrange(2)) for y in range(h) for x in range(w)]
    return flooding_from_nodes(image_to_graph(write_pgm(w, h, pixels, 7), rng.choice((4, 8))))


def _pruning_corpus():
    rng = random.Random(7)
    for _ in range(3000):
        yield random_flooding(rng, rng.choice((8, 12, 20)))
    for _ in range(1000):
        yield flooding_from_edges(random_edge_weighted(rng, 14))
    for _ in range(40):
        yield _voronoi_flooding(rng)


def test_local_pruning_is_depth_pruning_on_a_corpus():
    bad = []
    for n, fg in enumerate(_pruning_corpus()):
        for m in range(6):
            depth = prune_to_steepness(fg, m + 1).edges
            if local_prune(fg, m).edges != depth:
                bad.append(("local_prune", n, m))
            if is_steep(fg, m + 1) != (len(depth) == len(fg.edges)):
                bad.append(("is_steep", n, m))
    assert bad == []


def test_an_end_never_takes_back_an_edge_it_dropped():
    # node 0 drops (0, 6) at the first step; after it, nodes 1, 6, 7 and 8
    # all weigh 1, and an undirected step would give (0, 6) back to node 0
    rng = random.Random(102)
    for _ in range(15):
        fg = random_flooding(rng, 12)
    assert fg.node_weights == (1, 6, 5, 4, 1, 6, 3, 6, 1, 0, 0)
    assert (0, 6) in fg.edges and (0, 6) not in local_prune(fg, 2).edges
    assert local_prune(fg, 2).edges == prune_to_steepness(fg, 3).edges


def test_pruning_stops_at_its_fixed_point(rng):
    # a step that changes nothing ends the loop, so a huge depth is cheap
    for _ in range(30):
        fg = random_flooding(rng, 12)
        k = fg.num_nodes + 1
        assert local_prune(fg, 10**12) == local_prune(fg, k - 1)
        assert prune_to_steepness(fg, 10**12) == prune_to_steepness(fg, k)
        assert is_steep(fg, 10**12) == is_steep(fg, k)


def _tuple_track_edges(g, k):
    """The tuple recurrence that ``minimal_track_edges`` ran before track
    ranks, kept as its oracle: each pass grows every node's least tail by
    one level.  Returns the picked edges and the tails after k - 1 passes."""
    nw, ew = g.node_weights, g.edge_weights
    in_min = [v != UNSET for v in minima_of_flooding(g).values]

    def pairs():
        for eid, ((u, v), w) in enumerate(zip(g.edges, ew)):
            if w == nw[u] and not in_min[u]:
                yield u, v, eid
            if w == nw[v] and not in_min[v]:
                yield v, u, eid

    def lowest(tails):
        lo = [None] * g.num_nodes
        for i, j, _ in pairs():
            if lo[i] is None or tails[j] < lo[i]:
                lo[i] = tails[j]
        return lo

    best = [()] * g.num_nodes
    for _ in range(k - 1):
        nxt = [() if t is None else (w,) + t for w, t in zip(nw, lowest(best))]
        if nxt == best:
            break
        best = nxt
    lo, picked = [None] * g.num_nodes, [None] * g.num_nodes
    for i, j, eid in pairs():
        if lo[i] is None or best[j] < lo[i]:
            lo[i], picked[i] = best[j], [eid]
        elif best[j] == lo[i]:
            picked[i].append(eid)
    out = {None: frozenset([eid for eid, (u, v) in enumerate(g.edges)
                            if in_min[u] and in_min[v]])}
    out.update((i, frozenset(p)) for i, p in enumerate(picked) if p)
    return out, best


def test_track_ranks_follow_the_tuple_recurrence():
    rng = random.Random(23)
    corpus = [random_flooding(rng, rng.choice((8, 12, 20))) for _ in range(200)]
    corpus += quantized_pixel_floodings(rng, 30)
    for fg in corpus:
        n = fg.num_nodes
        for k in [*range(1, 9), n, n + 1, n + 5]:
            want, tails = _tuple_track_edges(fg, k)
            got = minimal_track_edges(fg, k)
            assert list(got.items()) == list(want.items())
            # the ranks order every two nodes as their truncated tracks do
            ranks = track_ranks(fg, k - 1)
            order = sorted(set(zip(tails, ranks)))
            assert all(t < u and r < s for (t, r), (u, s) in zip(order, order[1:]))
            assert all(r == 0 for t, r in order if t == ())


def test_track_ranks_at_depth_zero_and_one(five_path_flooding):
    fg = five_path_flooding  # weights 0 1 2 1 0, and two dummies in the minima
    assert track_ranks(fg, 0) == [0] * 7
    assert track_ranks(fg, 1) == [0, 2, 3, 2, 0, 0, 0]  # weight + 1 outside the minima
    assert track_ranks(fg, 2) == [0, 1, 2, 1, 0, 0, 0]  # dense from depth 2 on


def test_upstream_rows_hold_the_minimal_pairs_by_head():
    rng = random.Random(29)
    corpus = [random_flooding(rng, rng.choice((8, 12, 20))) for _ in range(80)]
    corpus += quantized_pixel_floodings(rng, 10)
    for fg in corpus:
        # the same graph with its edge list reversed: rows do not follow it
        back = WeightedGraph(fg.num_nodes, fg.edges[::-1], fg.node_weights,
                             fg.edge_weights[::-1], fg.dummies)
        for k in (1, 2, 3, fg.num_nodes + 1):
            rank, rows = _upstream(fg, k)
            assert rank == track_ranks(fg, k - 1)
            want = [[] for _ in range(fg.num_nodes)]
            for i, eids in minimal_track_edges(fg, k).items():
                for eid in eids if i is not None else ():
                    want[sum(fg.edges[eid]) - i].append(i)
            assert rows == [sorted(row) for row in want]
            assert _upstream(back, k) == (rank, rows)
            assert _upstream(fg, k)[1] is rows  # memoised for the last depth


def _union_prune(g, k):
    """``prune_to_steepness`` as it ran before it read the minimal pairs
    directly, kept as its oracle: the partial graph on the union of the
    per-node edge sets of ``minimal_track_edges``."""
    kept = set()
    for cands in minimal_track_edges(g, k).values():
        kept.update(cands)
    return g.partial(kept)


def test_prune_keeps_the_union_of_the_minimal_track_edges():
    rng = random.Random(31)
    corpus = [random_flooding(rng, rng.choice((8, 12, 20)), connected=c)
              for c in (False, True) for _ in range(60)]
    corpus += quantized_pixel_floodings(rng, 20)
    for fg in corpus:
        for k in range(1, 7):
            pruned = prune_to_steepness(fg, k)
            assert pruned == _union_prune(fg, k)
            assert minima_of_flooding(pruned) is minima_of_flooding(fg)


def test_prune_refuses_depth_zero(five_path_flooding):
    with pytest.raises(ValueError, match="steepness depth"):
        prune_to_steepness(five_path_flooding, 0)


def test_every_depth_k_function_refuses_depth_below_one():
    # the depth-k labelers reach the tracks through _minimal_pairs, which
    # alone holds the check; on the README's path they once gave UNIT
    # distances and labels (1, 1, 2, 2) at k = 0
    from morphograph import (basin_labels, basins_with_zones, build_hierarchy,
                             core_expanding, dijkstra_to_minima, partition)
    from morphograph.lexalgebra import distances_to_minima

    g = WeightedGraph(4, ((0, 1), (1, 2), (2, 3)), None, (1, 3, 2))
    fg = flooding_from_edges(g)
    calls = [core_expanding, dijkstra_to_minima, basins_with_zones, partition,
             prune_to_steepness, minimal_track_edges, is_steep,
             lambda h, k: basin_labels(h, k, "core"),
             lambda h, k: basin_labels(h, k, "dijkstra"),
             lambda h, k: build_hierarchy(g, k)]
    calls += [lambda h, k, m=m: distances_to_minima(h, k, m)
              for m in ("closure", "jacobi", "gauss_seidel", "jordan", "gondran")]
    for k in (0, -1):
        for call in calls:
            with pytest.raises(ValueError, match="depth must be >= 1"):
                call(fg, k)
    assert track_ranks(fg, 0) == [0] * fg.num_nodes  # depth 0 ranks nothing


def _small_and_pixel_floodings():
    """Every flooding of one graph per shape on up to 4 nodes, weighted on
    its nodes or on its edges in {0, 1, 2} in every way, then tie-heavy
    quantized pixel floodings."""
    from test_geodesics import _one_graph_per_shape

    for g in _one_graph_per_shape(4):
        for nw in itertools.product(range(3), repeat=g.num_nodes):
            yield flooding_from_nodes(g.with_weights(node_weights=nw))
        for ew in itertools.product(range(3), repeat=len(g.edges)) if g.edges else ():
            yield flooding_from_edges(g.with_weights(edge_weights=ew))
    yield from quantized_pixel_floodings(random.Random(83), 20)


def test_the_flooding_pairs_and_the_inner_edges_are_every_edge():
    # local pruning starts from the flooding pairs and adds the edges inside
    # the minima: on a flooding graph each edge is a pair of its higher end
    # or lies inside a minimum, and never both
    checked = 0
    for fg in _small_and_pixel_floodings():
        in_min, _, _, eids = _flooding_pairs(fg)
        inner = _inner_edges(fg, in_min)
        assert not set(eids) & set(inner)
        assert sorted({*eids, *inner}) == list(range(len(fg.edges)))
        checked += bool(eids) and bool(inner)
    assert checked > 1000


def _local_survivors_by_arcs(g, m):
    """``steepness._local_survivors`` as it ran before it started from the
    flooding pairs, kept as its oracle: two arcs per edge, one from each
    end, on node weights zeroed on the minima it read from the labeling."""
    if m < 0:
        raise ValueError("iteration count must be >= 0")
    labels = minima_of_flooding(g).values
    nw = [0 if v != UNSET else w for w, v in zip(g.node_weights, labels)]
    live = [(u, v, eid) for eid, (u, v) in enumerate(g.edges)]
    live += [(v, u, eid) for u, v, eid in live]
    for _ in range(m):
        lo = [TOP] * g.num_nodes
        for i, j, _ in live:
            if nw[j] < lo[i]:
                lo[i] = nw[j]
        kept = [arc for arc in live if nw[arc[1]] == lo[arc[0]]]
        if len(kept) == len(live) and lo == nw:
            break
        live, nw = kept, lo
    return {eid for _, _, eid in live}


def test_local_survivors_start_from_the_pairs_as_the_arcs_gave_them():
    # every depth from the identity to past the longest track: the steps
    # on the pairs keep what the steps on both arcs of every edge kept
    for fg in _small_and_pixel_floodings():
        for m in range(fg.num_nodes + 2):
            assert _local_survivors(fg, m) == _local_survivors_by_arcs(fg, m)
