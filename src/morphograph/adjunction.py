"""Elementary operators between node and edge weight fields.

A node field assigns one weight per node of a host graph, an edge field
one weight per edge; both are plain tuples.  The four elementary
operators form two adjunctions:

* ``erode_nodes_to_edges`` / ``dilate_edges_to_nodes``
* ``dilate_nodes_to_edges`` / ``erode_edges_to_nodes``

Composing a dilation with its adjunct erosion yields the edge opening
and node closing, whose invariants drive everything downstream.  Empty
suprema/infima on isolated nodes fall back to BOTTOM/TOP so the
adjunction law stays valid on disconnected graphs.

Each operator is one loop over the edge list: node-to-edge operators
read both ends of an edge, edge-to-node ones scatter its weight onto
both ends from BOTTOM or TOP, so none needs per-node rows.
"""

from __future__ import annotations

from typing import Sequence

from .errors import CarrierMismatch
from .graphs import WeightedGraph
from .weights import BOTTOM, TOP

Field = tuple[int, ...]


def erode_nodes_to_edges(g: WeightedGraph, n: Sequence[int]) -> Field:
    """Each edge takes the minimum of its endpoint weights."""
    return tuple([n[u] if n[u] < n[v] else n[v] for u, v in g.edges])


def dilate_nodes_to_edges(g: WeightedGraph, n: Sequence[int]) -> Field:
    """Each edge takes the maximum of its endpoint weights."""
    return tuple([n[u] if n[u] > n[v] else n[v] for u, v in g.edges])


def dilate_edges_to_nodes(g: WeightedGraph, e: Sequence[int]) -> Field:
    """Each node takes the maximum of its adjacent edges (BOTTOM if none)."""
    out = [BOTTOM] * g.num_nodes
    for (u, v), w in zip(g.edges, e):
        if w > out[u]:
            out[u] = w
        if w > out[v]:
            out[v] = w
    return tuple(out)


def erode_edges_to_nodes(g: WeightedGraph, e: Sequence[int]) -> Field:
    """Each node takes the minimum of its adjacent edges (TOP if none)."""
    out = [TOP] * g.num_nodes
    for (u, v), w in zip(g.edges, e):
        if w < out[u]:
            out[u] = w
        if w < out[v]:
            out[v] = w
    return tuple(out)


_OPS = {
    "erode_nodes_to_edges": (erode_nodes_to_edges, "nodes", "edges"),
    "dilate_nodes_to_edges": (dilate_nodes_to_edges, "nodes", "edges"),
    "erode_edges_to_nodes": (erode_edges_to_nodes, "edges", "nodes"),
    "dilate_edges_to_nodes": (dilate_edges_to_nodes, "edges", "nodes"),
}


def compose(g: WeightedGraph, chain: Sequence[str], field: Sequence[int], carrier: str) -> Field:
    """Apply a chain of elementary operators right-to-left.

    ``chain[-1]`` is applied first.  ``carrier`` names the carrier of the
    input field ("nodes" or "edges").  Raises CarrierMismatch when two
    consecutive operators do not fit together.
    """
    if carrier not in ("nodes", "edges"):
        raise CarrierMismatch(f"unknown carrier {carrier!r}")
    out = tuple(field)
    for name in reversed(chain):
        try:
            fn, src, dst = _OPS[name]
        except KeyError:
            raise CarrierMismatch(f"unknown operator {name!r}") from None
        if src != carrier:
            raise CarrierMismatch(f"{name} expects a {src} field, got {carrier}")
        out = fn(g, out)
        carrier = dst
    return out


def edge_opening(g: WeightedGraph, e: Sequence[int]) -> Field:
    """Opening on edge fields: erode onto nodes, dilate back onto edges.

    Anti-extensive, increasing, idempotent.  An edge keeps its weight
    exactly when it is the lowest adjacent edge of one of its endpoints.
    """
    return dilate_nodes_to_edges(g, erode_edges_to_nodes(g, e))


def node_closing(g: WeightedGraph, n: Sequence[int]) -> Field:
    """Closing on node fields: dilate onto edges, erode back onto nodes.

    Extensive, increasing, idempotent.  Only isolated regional-minimum
    nodes change, taking the weight of their lowest neighbor.
    """
    return erode_edges_to_nodes(g, dilate_nodes_to_edges(g, n))


def is_invariant(g: WeightedGraph, field: Sequence[int], which: str) -> bool:
    """True iff the opening/closing leaves the field unchanged."""
    field = tuple(field)
    if which == "edge_opening":
        return edge_opening(g, field) == field
    if which == "node_closing":
        return node_closing(g, field) == field
    raise ValueError(f"unknown operator {which!r}")
