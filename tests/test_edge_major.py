"""Whole-graph passes run over the edge list and never need the adjacency.

The adjunction operators and the lowest-edge filters are checked against
naive per-node references; the local pruning kernel against depth
pruning; and PGM runs of ``flood``, ``prune``, ``watershed`` and ``dist
--method core|dijkstra`` against a graph class whose adjacency rows refuse
to be built.
"""

import random

import pytest

from morphograph import (
    WeightedGraph,
    dilate_edges_to_nodes,
    dilate_nodes_to_edges,
    erode_edges_to_nodes,
    erode_nodes_to_edges,
    is_steep,
    local_prune,
    prune_to_steepness,
    zero_minima,
)
from morphograph import graphs
from morphograph.cli import main
from morphograph.flooding import as_flooding
from morphograph.formats import image_to_graph, write_pgm, write_wgr
from morphograph.graphs import lowest_edge_filter
from morphograph.weights import BOTTOM, TOP
from conftest import random_flooding


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


def _incident(g):
    """Per node, the (neighbor, edge id) pairs, built without the library."""
    inc = [[] for _ in range(g.num_nodes)]
    for eid, (u, v) in enumerate(g.edges):
        inc[u].append((v, eid))
        inc[v].append((u, eid))
    return inc


def test_adjunction_operators_match_per_node_reference():
    rng = random.Random(7)
    for _ in range(400):
        g = _random_graph(rng)
        n, e, inc = g.node_weights, g.edge_weights, _incident(g)
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
        n, e, inc = g.node_weights, g.edge_weights, _incident(g)
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


def test_derived_graphs_build_the_adjacency_of_a_fresh_construction():
    rng = random.Random(3)
    for parent_first in (True, False):
        fg = random_flooding(rng, 10)
        w = fg.with_weights(node_weights=[x + 1 for x in fg.node_weights])
        first, second = (fg, w) if parent_first else (w, fg)
        assert "adjacency" not in vars(first) and "adjacency" not in vars(second)
        assert first.adjacency == second.adjacency
        p = fg.partial(range(0, len(fg.edges), 2))
        assert "adjacency" not in vars(p)
        assert p.adjacency == WeightedGraph(p.num_nodes, p.edges).adjacency


def _terrain(rng, width, height):
    # coarse gray levels leave plateaus and isolated minima
    return [rng.randrange(5) for _ in range(width * height)]


def _refuse_adjacency(monkeypatch):
    def refuse(self):
        raise AssertionError("a whole-graph pass built the adjacency")

    monkeypatch.setattr(graphs.WeightedGraph, "adjacency", property(refuse))


@pytest.mark.parametrize("connectivity", (4, 8))
def test_flooding_and_pruning_an_image_never_build_the_adjacency(connectivity, monkeypatch):
    rng = random.Random(connectivity)
    for _ in range(10):
        data = write_pgm(9, 7, _terrain(rng, 9, 7), 4)
        g = image_to_graph(data, connectivity)
        fg = as_flooding(g)
        pruned = local_prune(fg, 2)
        for x in (g, fg, pruned):
            assert "adjacency" not in vars(x)
        _refuse_adjacency(monkeypatch)
        assert local_prune(as_flooding(image_to_graph(data, connectivity)), 2) == pruned
        assert zero_minima(fg).edges == fg.edges
        write_wgr(pruned)
        monkeypatch.undo()


def test_flood_and_prune_commands_never_build_the_adjacency(tmp_path, capsys, monkeypatch):
    path = tmp_path / "t.pgm"
    path.write_bytes(write_pgm(12, 10, _terrain(random.Random(1), 12, 10), 4))
    _refuse_adjacency(monkeypatch)
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
