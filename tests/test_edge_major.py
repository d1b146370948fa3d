"""A graph is its edge list: whole-graph passes run over the edges.

The adjunction operators and the lowest-edge filters are checked against
naive per-node references; the local pruning kernel against depth
pruning.  Every graph that the pipeline's stages, or PGM runs of
``flood``, ``prune``, ``watershed`` and ``dist --method core|dijkstra``,
are given or build must hold only its five fields and the three memos
the pipeline keeps.
"""

import random

import pytest

from morphograph import (
    WeightedGraph,
    basin_labels,
    basins_with_zones,
    build_hierarchy,
    dilate_edges_to_nodes,
    dilate_nodes_to_edges,
    drainage_forest,
    erode_edges_to_nodes,
    erode_nodes_to_edges,
    is_steep,
    local_prune,
    prune_to_steepness,
    reconstruct_by_integration,
    toll_distances,
    zero_minima,
)
from morphograph.cli import main
from morphograph.flooding import as_flooding, minima_of_flooding, minima_sets
from morphograph.formats import image_to_graph, parse_wgr, write_pgm, write_wgr
from morphograph.graphs import lowest_edge_filter
from morphograph.lexalgebra import distances_to_minima
from morphograph.weights import BOTTOM, TOP
from conftest import random_flooding, rows


def _random_graph(rng):
    """Any shape, isolated nodes and edgeless graphs included; weights
    may hit the sentinels."""
    n = rng.randint(0, 12)
    p = rng.choice((0.0, 0.15, 0.5))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    levels = list(range(7)) + [BOTTOM, TOP]
    nw = [rng.choice(levels) for _ in range(n)]
    ew = [rng.choice(levels) for _ in edges]
    return WeightedGraph(n, edges, nw, ew)


def test_adjunction_operators_match_per_node_reference():
    rng = random.Random(7)
    for _ in range(400):
        g = _random_graph(rng)
        n, e, inc = g.node_weights, g.edge_weights, rows(g)
        assert erode_nodes_to_edges(g, n) == tuple(min(n[u], n[v]) for u, v in g.edges)
        assert dilate_nodes_to_edges(g, n) == tuple(max(n[u], n[v]) for u, v in g.edges)
        assert erode_edges_to_nodes(g, e) == tuple(
            min((e[eid] for _, eid in row), default=TOP) for row in inc)
        assert dilate_edges_to_nodes(g, e) == tuple(
            max((e[eid] for _, eid in row), default=BOTTOM) for row in inc)


def test_lowest_edge_filters_match_per_node_reference():
    rng = random.Random(11)
    for _ in range(400):
        g = _random_graph(rng)
        n, e, inc = g.node_weights, g.edge_weights, rows(g)
        lowest_edges, lowest_nodes = set(), set()
        for row in inc:
            if row:
                lo = min(e[eid] for _, eid in row)
                lowest_edges.update(eid for _, eid in row if e[eid] == lo)
                lo = min(n[j] for j, _ in row)
                lowest_nodes.update(eid for j, eid in row if n[j] == lo)
        assert lowest_edge_filter(g, "lowest_edges") == lowest_edges
        assert lowest_edge_filter(g, "lowest_nodes") == lowest_nodes


@pytest.mark.parametrize("m", range(5))
def test_local_prune_builds_one_partial_and_matches_repeated_steps(m, monkeypatch):
    rng = random.Random(100 + m)
    calls = []
    partial = WeightedGraph.partial

    def counted(self, keep):
        calls.append(self)
        return partial(self, keep)

    for _ in range(40):
        fg = random_flooding(rng, 12)
        # repeated local_prune_step is no oracle: an eroded graph forgets
        # which end dropped an edge
        want = prune_to_steepness(fg, m + 1).edges
        calls.clear()
        monkeypatch.setattr(WeightedGraph, "partial", counted)
        got = local_prune(fg, m)
        monkeypatch.undo()
        assert len(calls) == 1
        assert got.edges == want


def test_is_steep_builds_no_graph(monkeypatch):
    rng = random.Random(5)
    cases = [random_flooding(rng, 10) for _ in range(40)]
    want = [[len(local_prune(fg, k - 1).edges) == len(fg.edges) for k in (1, 2, 3)]
            for fg in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("is_steep built a graph")

    for name in ("partial", "with_weights", "_derive"):
        monkeypatch.setattr(WeightedGraph, name, refuse)
    assert [[is_steep(fg, k) for k in (1, 2, 3)] for fg in cases] == want


def _terrain(rng, width, height):
    # coarse gray levels leave plateaus and isolated minima
    return [rng.randrange(5) for _ in range(width * height)]


# a graph holds its five fields, and the pipeline memoises in it only the
# minima labeling, the node zone walk and the minimal-pair rows
FIELDS_AND_MEMOS = {"num_nodes", "edges", "node_weights", "edge_weights", "dummies",
                    "_minima", "_node_walk", "_upstream"}


def _record_graphs(monkeypatch):
    """The list every graph built from now on joins, whether constructed
    or derived."""
    built, post_init, derive = [], WeightedGraph.__post_init__, WeightedGraph._derive.__func__

    def recorded_post_init(g):
        post_init(g)
        built.append(g)

    def recorded_derive(cls, *args):
        built.append(derive(cls, *args))
        return built[-1]

    monkeypatch.setattr(WeightedGraph, "__post_init__", recorded_post_init)
    monkeypatch.setattr(WeightedGraph, "_derive", classmethod(recorded_derive))
    return built


def _only_fields_and_memos(graphs):
    return all(set(vars(g)) <= FIELDS_AND_MEMOS for g in graphs)


def test_the_class_has_no_per_node_rows():
    for name in ("adjacency", "neighbors", "edge_id", "_edge_index"):
        assert not hasattr(WeightedGraph, name)


@pytest.mark.parametrize("connectivity", (4, 8))
def test_flooding_and_pruning_an_image_never_build_the_adjacency(connectivity, monkeypatch):
    rng = random.Random(connectivity)
    for _ in range(10):
        data = write_pgm(9, 7, _terrain(rng, 9, 7), 4)
        g = image_to_graph(data, connectivity)
        fg = as_flooding(g)
        pruned = local_prune(fg, 2)
        assert _only_fields_and_memos((g, fg, pruned))
        built = _record_graphs(monkeypatch)
        assert local_prune(as_flooding(image_to_graph(data, connectivity)), 2) == pruned
        assert zero_minima(fg).edges == fg.edges
        write_wgr(pruned)
        assert built and _only_fields_and_memos(built)
        monkeypatch.undo()


def test_flood_and_prune_commands_never_build_the_adjacency(tmp_path, capsys, monkeypatch):
    path = tmp_path / "t.pgm"
    path.write_bytes(write_pgm(12, 10, _terrain(random.Random(1), 12, 10), 4))
    built = _record_graphs(monkeypatch)
    # the watershed labelers and the distance solvers walk the minimal-pair rows
    watersheds = [["watershed", "--algo", algo, "--format", fmt, "--depth", depth]
                  for algo in ("core", "dijkstra", "hq")
                  for fmt in ("json", "dot", "pgm-labels") for depth in ("2", "3")]
    dists = [["dist", "--method", method, "--depth", "3"] for method in ("core", "dijkstra")]
    for argv in (["flood"], ["prune", "--steepness", "3"], ["prune", "--steepness", "1"],
                 *watersheds, *dists):
        assert main([argv[0], str(path), *argv[1:]]) == 0
        out = capsys.readouterr()
        assert out.out and not out.err
        assert built and _only_fields_and_memos(built)
        built.clear()


def test_every_stage_leaves_each_graph_its_fields_and_memos(monkeypatch):
    # a terrain image, and the .wgr text of its gradient (edge weight = gray
    # difference), run through every stage of the pipeline
    pixels = _terrain(random.Random(26), 9, 7)
    image = image_to_graph(write_pgm(9, 7, pixels, 4), 4)
    gradient = [abs(pixels[u] - pixels[v]) for u, v in image.edges]
    text = write_wgr(WeightedGraph(image.num_nodes, image.edges, None, gradient))
    for g in (image, parse_wgr(text)):
        built = _record_graphs(monkeypatch)
        fg = as_flooding(g)
        for algo in ("core", "dijkstra", "hq"):
            basin_labels(fg, 3, algo)
        basins_with_zones(fg, 3)
        prune_to_steepness(fg, 3)
        local_prune(fg, 2)
        drainage_forest(fg)
        build_hierarchy(g, 2)
        for method in ("closure", "jacobi", "gauss_seidel", "jordan", "gondran"):
            distances_to_minima(fg, 3, method)
        for mode in ("toll", "topographic"):
            toll_distances(fg, minima_sets(minima_of_flooding(fg)), mode)
        reconstruct_by_integration(fg)
        assert {"_minima", "_node_walk", "_upstream"} <= set(vars(fg))
        assert _only_fields_and_memos([g, *built])
        monkeypatch.undo()
