import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphograph import (
    CarrierMismatch,
    WeightedGraph,
    compose,
    dilate_edges_to_nodes,
    dilate_nodes_to_edges,
    edge_opening,
    erode_edges_to_nodes,
    erode_nodes_to_edges,
    is_invariant,
    node_closing,
)
from morphograph.weights import BOTTOM, TOP
from conftest import random_edge_weighted
from test_weights import complement

W_MAX = 9


def small_graphs(max_nodes=4):
    for n in range(1, max_nodes + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for r in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, r):
                yield WeightedGraph(n, edges)


def test_erode_nodes_to_edges_single():
    g = WeightedGraph(2, ((0, 1),))
    assert erode_nodes_to_edges(g, (3, 1)) == (1,)


def test_erode_nodes_to_edges_constant(triangle):
    assert erode_nodes_to_edges(triangle, (4, 4, 4)) == (4, 4, 4)


def test_erode_nodes_to_edges_triangle(triangle):
    # edges are ordered (0,1), (1,2), (0,2)
    assert erode_nodes_to_edges(triangle, (1, 2, 3)) == (1, 2, 1)


def test_dilate_edges_to_nodes_triangle(triangle):
    assert dilate_edges_to_nodes(triangle, (3, 1, 2)) == (3, 3, 2)


def test_dilate_edges_to_nodes_single_edge():
    g = WeightedGraph(2, ((0, 1),))
    assert dilate_edges_to_nodes(g, (5,)) == (5, 5)


def test_dilate_edges_to_nodes_isolated_is_bottom():
    g = WeightedGraph(2, ())
    assert dilate_edges_to_nodes(g, ()) == (BOTTOM, BOTTOM)


def test_dilate_nodes_to_edges():
    g = WeightedGraph(2, ((0, 1),))
    assert dilate_nodes_to_edges(g, (3, 1)) == (3,)
    p5 = WeightedGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4)))
    assert dilate_nodes_to_edges(p5, (0, 1, 2, 1, 0)) == (1, 2, 2, 1)


def test_erode_edges_to_nodes(path4):
    assert erode_edges_to_nodes(path4, (1, 3, 2)) == (1, 1, 2, 2)
    g = WeightedGraph(2, ((0, 1),))
    assert erode_edges_to_nodes(g, (5,)) == (5, 5)


def test_erode_edges_to_nodes_isolated_is_top():
    g = WeightedGraph(1, ())
    assert erode_edges_to_nodes(g, ()) == (TOP,)


def test_compose_node_erosion():
    g = WeightedGraph(3, ((0, 1), (1, 2)))
    out = compose(
        g, ["erode_edges_to_nodes", "erode_nodes_to_edges"], (0, 1, 2), "nodes"
    )
    assert out == (0, 0, 1)


def test_compose_empty_chain_is_identity(path4):
    assert compose(path4, [], (1, 3, 2), "edges") == (1, 3, 2)


def test_compose_edge_dilation(path4):
    out = compose(
        path4, ["dilate_nodes_to_edges", "dilate_edges_to_nodes"], (1, 3, 2), "edges"
    )
    assert out == (3, 3, 3)


def test_compose_carrier_mismatch(path4):
    with pytest.raises(CarrierMismatch):
        compose(path4, ["erode_nodes_to_edges"], (1, 3, 2), "edges")
    with pytest.raises(CarrierMismatch):
        compose(path4, ["bogus"], (1, 3, 2), "edges")


def test_opening_path4(path4):
    assert edge_opening(path4, (1, 3, 2)) == (1, 2, 2)


def test_opening_fixes_invariants(path4):
    assert edge_opening(path4, (1, 1, 2)) == (1, 1, 2)


def test_opening_single_edge():
    g = WeightedGraph(2, ((0, 1),))
    assert edge_opening(g, (7,)) == (7,)


def test_closing_examples():
    g = WeightedGraph(3, ((0, 1), (1, 2)))
    assert node_closing(g, (1, 5, 3)) == (5, 5, 5)
    assert node_closing(g, (2, 2, 7)) == (2, 2, 7)
    assert node_closing(g, (4, 4, 4)) == (4, 4, 4)


def test_is_invariant(path4):
    assert is_invariant(path4, (1, 2, 2), "edge_opening")
    g = WeightedGraph(3, ((0, 1), (1, 2)))
    assert not is_invariant(g, (1, 5, 3), "node_closing")
    assert is_invariant(g, (3, 3, 3), "node_closing")
    assert is_invariant(path4, (6, 6, 6), "edge_opening")


def test_adjunction_law_exhaustive_small():
    # dilation below an edge field iff the node field is below its erosion
    for g in small_graphs(4):
        ne = len(g.edges)
        for n in itertools.product((0, 1, 2), repeat=g.num_nodes):
            dil = dilate_nodes_to_edges(g, n)
            for e in itertools.product((0, 1, 2), repeat=ne):
                ero = erode_edges_to_nodes(g, e)
                assert (all(x <= y for x, y in zip(dil, e))
                        == all(x <= y for x, y in zip(n, ero)))


def test_other_adjunction_law_sampled(rng):
    # erode_nodes_to_edges below e iff n below dilate_edges_to_nodes... adjunct
    # pair is (dilate_edges_to_nodes, erode_nodes_to_edges): alpha on edges.
    for _ in range(300):
        g = random_edge_weighted(rng, 5, w_max=2)
        n = tuple(rng.randint(0, 2) for _ in range(g.num_nodes))
        e = tuple(rng.randint(0, 2) for _ in g.edges)
        lhs = all(x <= y for x, y in zip(dilate_edges_to_nodes(g, e), n))
        rhs = all(x <= y for x, y in zip(e, erode_nodes_to_edges(g, n)))
        assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_erosion_commutes_with_min(data):
    n = data.draw(st.integers(2, 5))
    pairs = list(itertools.combinations(range(n), 2))
    edges = tuple(p for p in pairs if data.draw(st.booleans()))
    g = WeightedGraph(n, edges)
    e1 = tuple(data.draw(st.integers(0, W_MAX)) for _ in edges)
    e2 = tuple(data.draw(st.integers(0, W_MAX)) for _ in edges)
    both = tuple(min(a, b) for a, b in zip(e1, e2))
    lhs = erode_edges_to_nodes(g, both)
    rhs = tuple(
        min(a, b) for a, b in zip(erode_edges_to_nodes(g, e1), erode_edges_to_nodes(g, e2))
    )
    assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dilation_commutes_with_max(data):
    n = data.draw(st.integers(2, 5))
    pairs = list(itertools.combinations(range(n), 2))
    edges = tuple(p for p in pairs if data.draw(st.booleans()))
    g = WeightedGraph(n, edges)
    n1 = tuple(data.draw(st.integers(0, W_MAX)) for _ in range(n))
    n2 = tuple(data.draw(st.integers(0, W_MAX)) for _ in range(n))
    both = tuple(max(a, b) for a, b in zip(n1, n2))
    lhs = dilate_nodes_to_edges(g, both)
    rhs = tuple(
        max(a, b)
        for a, b in zip(dilate_nodes_to_edges(g, n1), dilate_nodes_to_edges(g, n2))
    )
    assert lhs == rhs


def test_opening_closing_properties(rng):
    for _ in range(200):
        g = random_edge_weighted(rng, 8)
        e = g.edge_weights
        opened = edge_opening(g, e)
        assert all(a <= b for a, b in zip(opened, e))         # anti-extensive
        assert edge_opening(g, opened) == opened              # idempotent
        n = tuple(rng.randint(0, W_MAX) for _ in range(g.num_nodes))
        closed = node_closing(g, n)
        assert all(a >= b for a, b in zip(closed, n))         # extensive
        assert node_closing(g, closed) == closed


def test_duality_through_complement(rng):
    for _ in range(100):
        g = random_edge_weighted(rng, 7)
        n = tuple(rng.randint(0, W_MAX) for _ in range(g.num_nodes))
        cn = tuple(complement(x, W_MAX) for x in n)
        lhs = erode_nodes_to_edges(g, cn)
        rhs = tuple(complement(x, W_MAX) for x in dilate_nodes_to_edges(g, n))
        assert lhs == rhs


def test_pseudo_inverse_on_invariants(rng):
    # any opened field is invariant, and there the dilation undoes the erosion
    for _ in range(100):
        g = random_edge_weighted(rng, 8)
        e = edge_opening(g, g.edge_weights)
        assert dilate_nodes_to_edges(g, erode_edges_to_nodes(g, e)) == e


def test_invariant_families(rng):
    for _ in range(100):
        g = random_edge_weighted(rng, 7)
        e1 = edge_opening(g, g.edge_weights)
        e2 = edge_opening(g, tuple(rng.randint(0, W_MAX) for _ in g.edges))
        union = tuple(max(a, b) for a, b in zip(e1, e2))
        assert is_invariant(g, union, "edge_opening")
        n1 = node_closing(g, tuple(rng.randint(0, W_MAX) for _ in range(g.num_nodes)))
        n2 = node_closing(g, tuple(rng.randint(0, W_MAX) for _ in range(g.num_nodes)))
        meet = tuple(min(a, b) for a, b in zip(n1, n2))
        assert is_invariant(g, meet, "node_closing")
