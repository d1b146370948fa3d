"""Acceptance criteria, one test per criterion.

Every check is exact (integer weights, no tolerances).  Run with
``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
"""

import itertools
import random
import time

from morphograph import (
    WeightedGraph,
    build_hierarchy,
    core_expanding,
    dijkstra_to_minima,
    dilate_nodes_to_edges,
    drainage_forest,
    edge_opening,
    emergent_tree,
    erode_edges_to_nodes,
    flooding_from_nodes,
    forest_weight,
    hq_watershed,
    lex_compare,
    local_prune,
    node_closing,
    prune_to_steepness,
    reconstruct_by_integration,
    toll_distances,
)
from morphograph.flooding import minima_of_flooding, minima_sets
from morphograph.graphs import UNSET, minima_span, regional_minima
from morphograph.lexalgebra import distances_to_minima
from conftest import (
    brute_flooding_distance,
    constrained_msf_weight,
    flooding_distance_matrix,
    kruskal_mst,
    random_edge_weighted,
    random_flooding,
    random_node_weighted,
)


def ok(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_criterion_01_adjunction_law_exhaustive():
    start = time.time()
    checked = 0
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for r in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, r):
                g = WeightedGraph(n, edges)
                for nf in itertools.product((0, 1, 2), repeat=n):
                    dil = dilate_nodes_to_edges(g, nf)
                    for ef in itertools.product((0, 1, 2), repeat=r):
                        ero = erode_edges_to_nodes(g, ef)
                        lhs = all(x <= y for x, y in zip(dil, ef))
                        rhs = all(x <= y for x, y in zip(nf, ero))
                        assert lhs == rhs
                        checked += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    ok(1, f"adjunction law on {checked} field pairs, {elapsed:.1f}s, 0 violations")


def test_criterion_02_opening_closing_laws():
    rng = random.Random(2)
    for _ in range(1000):
        g = random_edge_weighted(rng, 12)
        e = g.edge_weights
        opened = edge_opening(g, e)
        assert all(a <= b for a, b in zip(opened, e))
        assert edge_opening(g, opened) == opened
        nf = tuple(rng.randint(0, 9) for _ in range(g.num_nodes))
        closed = node_closing(g, nf)
        assert all(a >= b for a, b in zip(closed, nf))
        assert node_closing(g, closed) == closed
    ok(2, "opening anti-extensive+idempotent, closing extensive+idempotent, 1000 graphs")


def test_criterion_03_minima_correspondence():
    rng = random.Random(3)
    for _ in range(500):
        fg = random_flooding(rng)
        node_m = set(map(frozenset, regional_minima(fg, "nodes")))
        edge_m = set(
            map(frozenset, minima_span(regional_minima(fg, "edges"), fg))
        )
        assert node_m == edge_m
        minima_of_flooding(fg)  # also asserts the shared labeling
    ok(3, "node minima = edge minima on 500 random flooding graphs")


def test_criterion_04_pruning_equivalence():
    rng = random.Random(4)
    for _ in range(300):
        fg = random_flooding(rng, 10)
        for k in (2, 3, 4):
            assert set(local_prune(fg, k - 1).edges) == set(
                prune_to_steepness(fg, k).edges
            )
    ok(4, "local pruning = depth pruning for k in {2,3,4}, 300 graphs")


def test_criterion_05_solver_agreement():
    rng = random.Random(5)
    for _ in range(100):
        fg = random_flooding(rng, 12)
        k = rng.randint(1, 3)
        ref, _ = distances_to_minima(fg, k, "closure")
        for method in ("jacobi", "gauss_seidel", "jordan", "gondran"):
            got, _ = distances_to_minima(fg, k, method)
            assert got == ref
        got, _ = dijkstra_to_minima(fg, k)
        assert got == ref
        got, _, _ = core_expanding(fg, k)
        assert got == ref
    ok(5, "closure/jacobi/gauss-seidel/jordan/gondran/dijkstra/core identical, 100 graphs")


def test_criterion_06_depth1_is_flooding_ultrametric():
    rng = random.Random(6)
    for _ in range(25):
        g = random_edge_weighted(rng, 8)
        d = flooding_distance_matrix(g)
        n = g.num_nodes
        for x in range(n):
            for y in range(n):
                assert d[x][y] == brute_flooding_distance(g, x, y)
                for z in range(n):
                    if None not in (d[x][y], d[y][z], d[x][z]):
                        assert d[x][z] <= max(d[x][y], d[y][z])
    ok(6, "depth-1 distance = brute-force min-max, ultrametric on all triples")


def test_criterion_07_toll_fixture():
    tolls = (0, 1, 1, 2, 2, 0, 3, 4, 6)
    edges = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
             (0, 6), (6, 7), (7, 5), (1, 8), (8, 5))
    g = WeightedGraph(9, edges, tolls, None)
    dists, _ = toll_distances(g, [0], mode="toll")
    assert dists[5] == 6
    ok(7, "cheapest chain on the toll fixture pays exactly 1+1+2+2 = 6")


def test_criterion_08_toughness_ordering():
    assert lex_compare((2, 2), (3, 2)) == -1
    assert lex_compare((3, 2), (2, 2)) == 1
    ok(8, "toughness [2,2] precedes [3,2]")


def test_criterion_09_drainage_forest_weight():
    rng = random.Random(9)
    for _ in range(200):
        fg = random_flooding(rng, 10)
        labels = minima_of_flooding(fg).values
        sets = minima_sets(minima_of_flooding(fg))
        formula = sum((len(m) - 1) * fg.node_weights[min(m)] for m in sets)
        formula += sum(
            fg.node_weights[i] for i in range(fg.num_nodes) if labels[i] == UNSET
        )
        oracle = constrained_msf_weight(fg)
        assert formula == oracle
        weights = {
            forest_weight(fg, drainage_forest(fg, f"seed:{s}")) for s in range(5)
        }
        weights.add(forest_weight(fg, drainage_forest(fg)))
        assert weights == {oracle}
    ok(9, "forest weight = formula = constrained Kruskal, invariant over 5 seeds")


def test_criterion_10_mst_emergence():
    rng = random.Random(10)
    for trial in range(200):
        g = random_edge_weighted(rng, 12, connected=True)
        if trial % 2:
            perm = list(range(len(g.edges)))
            rng.shuffle(perm)
            g = g.with_weights(edge_weights=tuple(perm))
        h = build_hierarchy(g, 2)
        tree = emergent_tree(h)
        want, kruskal_edges = kruskal_mst(g)
        assert sum(h.base.edge_weights[e] for e in tree) == want
        if trial % 2:  # distinct weights: the MST is unique
            assert tree == frozenset(kruskal_edges)
    ok(10, "waterfall forest union = Kruskal MST on 200 connected graphs")


def test_criterion_11_waterfall_shape():
    profile = WeightedGraph(
        7, tuple((i, i + 1) for i in range(6)), (1, 5, 2, 7, 1, 6, 3), None
    )
    h = build_hierarchy(profile, 2)
    assert [lvl.region_count for lvl in h.levels] == [4, 2, 1]
    ok(11, "1-D profile with 4 basins merges 4 -> 2 -> 1")


def test_criterion_12_reconstruction_roundtrip():
    rng = random.Random(12)
    for _ in range(200):
        g = random_node_weighted(rng, 10)
        reconstruct_by_integration(g)  # raises unless integration recovers f
        tolls, _ = reconstruct_by_integration(g)
        dists, _ = toll_distances(g, regional_minima(g, "nodes"), mode="topographic")
        assert all(
            d is None or d == g.node_weights[i] for i, d in enumerate(dists)
        )
    ok(12, "tolls + minima reconstruct the field exactly on 200 graphs")


def test_criterion_13_core_expanding_and_plateau_fifo():
    rng = random.Random(13)
    for _ in range(100):
        fg = random_flooding(rng, 10)
        k = rng.randint(1, 3)
        ref, _ = dijkstra_to_minima(fg, k)
        got, _, enqueued = core_expanding(fg, k)
        assert got == ref
        assert enqueued == fg.num_nodes

    # plateau fixture: minima at both ends, five equal nodes between;
    # nodes 1 and 5 touch the lower boundary, BFS distance to it decides
    g = WeightedGraph(
        7, tuple((i, i + 1) for i in range(6)), (0, 5, 5, 5, 5, 5, 0), None
    )
    fg = flooding_from_nodes(g)
    labels = hq_watershed(fg).values
    for i in (1, 2, 3, 4, 5):
        left, right = i - 1, 5 - i
        if left < right:
            assert labels[i] == 1
        elif right < left:
            assert labels[i] == 2
    assert labels[3] == 1  # the tie goes to the first wavefront in FIFO order
    ok(13, "core expanding enqueues once & matches dijkstra; plateau FIFO = BFS oracle")
