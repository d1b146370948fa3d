"""Independent checks of the program's outputs.

Each check reads the bytes an op wrote and compares them with facts the
benchmark derives on its own from the generated input: the regional
minima, a Kruskal spanning-tree weight from its own union-find, and the
flooding identities.  Only ``dist`` is compared with the program's other
solvers, as the paper's solver equivalence prescribes: ``core`` with
``dijkstra_to_minima``, and the five dense solvers with each other.  The
solvers promise equal distances, while ``core`` may give a node at equal
distance from two minima either label.
A check returns an error string, or None when the output is correct.
"""

from __future__ import annotations

import json


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def kruskal_weight(n: int, edges: list[tuple[int, int]], weights: list[int]) -> int:
    uf = UnionFind(n)
    return sum(w for w, (u, v) in sorted(zip(weights, edges)) if uf.union(u, v))


def parse_wgr(text: str) -> tuple[list[int], list[tuple[int, int, int]]]:
    nodes, edges = [], []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "node":
            nodes.append(int(parts[2]))
        elif parts and parts[0] == "edge":
            edges.append((int(parts[1]), int(parts[2]), int(parts[3])))
    return nodes, edges


def check_flooding(text: str, values: list[int], allowed: set[tuple[int, int]]) -> str | None:
    """A flooding graph over the input's nodes, using only allowed edges.

    Node weights must be the input's (dummy nodes may follow), every edge
    the max of its endpoints, and every node the min of its edges.
    """
    nodes, edges = parse_wgr(text)
    if nodes[: len(values)] != values:
        return "node weights differ from the input"
    low = [None] * len(nodes)
    for u, v, w in edges:
        if u < len(values) and v < len(values) and (u, v) not in allowed:
            return f"edge ({u},{v}) is not an input edge"
        if w != max(nodes[u], nodes[v]):
            return f"edge ({u},{v}) weighs {w}, not the max of its endpoints"
        for i in (u, v):
            if low[i] is None or w < low[i]:
                low[i] = w
    if low != nodes:
        return "a node weight is not the min of its edges"
    return None


def check_watershed(labels: list[int], minima: list[list[int]]) -> str | None:
    """Every node labeled, one label per minimum, one minimum per label."""
    if any(lab <= 0 for lab in labels):
        return "a node is left unlabeled"
    seen = set()
    for m in minima:
        got = {labels[i] for i in m}
        if len(got) != 1:
            return f"minimum at node {m[0]} carries labels {sorted(got)}"
        if got & seen:
            return f"minimum at node {m[0]} shares its label"
        seen |= got
    if len(set(labels)) != len(minima):
        return f"{len(set(labels))} labels for {len(minima)} minima"
    return None


def check_label_image(data: bytes, minima: list[list[int]]) -> str | None:
    """pgm-labels output: gray levels stand for labels while minima < 255."""
    header = data.split(b"\n", 1)[0].split()
    if header[0] != b"P5":
        return "label map is not a P5 image"
    return check_watershed(list(data.split(b"\n", 1)[1]), minima)


def check_distances(payload: dict, reference: dict, relief: tuple, depth: int,
                    minima: list[list[int]]) -> str | None:
    """Distances equal the reference; each label comes down a geodesic.

    A node outside the minima must carry the label of a neighbor it floods
    (one no higher) whose distance, chained behind the node's own weight,
    gives the node's distance.
    """
    dist, labels = payload["distances"], payload["labels"]
    if dist != reference["distances"]:
        return "distances differ from dijkstra_to_minima"
    error = check_watershed(labels, minima)
    if error:
        return error
    _, edges, values = relief
    ok = [False] * len(values)
    for m in minima:
        for i in m:
            ok[i] = True
    for u, v in edges:
        for s, t in ((u, v), (v, u)):
            if (not ok[s] and values[t] <= values[s] and labels[t] == labels[s]
                    and dist[s] == ([values[s]] + dist[t][: depth - 1])[:depth]):
                ok[s] = True
    if not all(ok):
        return f"node {ok.index(False)} has a label no geodesic brings"
    return None


def check_mst(payload: dict, n: int, weight: int) -> str | None:
    """A spanning tree of the n-node base graph with the Kruskal weight."""
    edges = payload["edges"]
    if len(edges) != n - 1:
        return f"{len(edges)} tree edges for {n} nodes"
    uf = UnionFind(n)
    if not all(uf.union(u, v) for u, v, _ in edges):
        return "tree edges close a cycle"
    if sum(w for _, _, w in edges) != payload["weight"]:
        return "listed edge weights do not sum to the weight"
    if payload["weight"] != weight:
        return f"weight {payload['weight']} != Kruskal weight {weight}"
    return None


def check_waterfall(payload: dict, minima: int) -> str | None:
    """Nested partitions from one region per minimum down to a single region."""
    levels = payload["levels"]
    for lvl in levels:
        if len(set(lvl["labels"])) != lvl["regions"]:
            return "region count differs from the labels used"
    if levels[0]["regions"] != minima:
        return f"first level has {levels[0]['regions']} regions for {minima} minima"
    if levels[-1]["regions"] != 1:
        return "last level has more than one region"
    for fine, coarse in zip(levels, levels[1:]):
        parent = {}
        for a, b in zip(fine["labels"], coarse["labels"]):
            if parent.setdefault(a, b) != b:
                return "a region splits at the next level"
    return None


def check_dense(outputs: dict[str, bytes]) -> tuple[str | None, int]:
    """The dense solvers' outputs, keyed by method, agree.

    All five must print the same distances: that is the paper's solver
    equivalence.  The four solvers whose per-minimum distances are exact
    must also print the same labels.  ``jordan`` is held to distances
    only, because ``lexalgebra._solve_jordan`` can return a per-minimum
    distance that is not minimal, which moves the smallest-label tie break
    (see README.md).  Returns the error, or None, and the number of nodes
    whose ``jordan`` label differs from ``closure``'s.
    """
    payloads = {m: json.loads(out) for m, out in outputs.items()}
    ref = payloads["closure"]
    for method, payload in payloads.items():
        if payload["distances"] != ref["distances"]:
            return f"{method} distances differ from closure's", 0
        if method != "jordan" and payload["labels"] != ref["labels"]:
            return f"{method} labels differ from closure's", 0
    jordan = payloads["jordan"]["labels"]
    return None, sum(a != b for a, b in zip(jordan, ref["labels"]))
