"""Seeded synthetic inputs for the benchmark, and their workload properties.

Every generator takes a ``random.Random`` built from the workload seed, so
the same seed gives byte-identical files.  The terrains are Voronoi
distance fields: seeds sit one per cell of a jittered grid, a pixel's gray
level grows with its distance to the nearest seed, and a little uniform
noise breaks most ties.  Each seed makes one regional minimum.

The property functions read only the generated pixels or edges, never the
program under test, so they describe the inputs a workload feeds in.
"""

from __future__ import annotations

import math
import random
from collections import deque


def voronoi_relief(rng: random.Random, size: int, cells: int, noise: int) -> list[int]:
    """Row-major gray levels in [0, 255] of a ``size`` x ``size`` terrain."""
    step = size / cells
    seeds = {
        (cx, cy): ((cx + rng.uniform(0.15, 0.85)) * step, (cy + rng.uniform(0.15, 0.85)) * step)
        for cy in range(cells)
        for cx in range(cells)
    }
    scale = 200.0 / (0.75 * step)
    pixels = []
    for y in range(size):
        cy = int(y / step)
        for x in range(size):
            cx = int(x / step)
            near = min(
                (sx - x) ** 2 + (sy - y) ** 2
                for dy in (-2, -1, 0, 1, 2)
                for dx in (-2, -1, 0, 1, 2)
                if (cx + dx, cy + dy) in seeds
                for sx, sy in (seeds[cx + dx, cy + dy],)
            )
            level = math.sqrt(near) * scale + rng.randint(0, noise)
            pixels.append(min(255, int(level)))
    return pixels


def quantize(pixels: list[int], levels: int) -> list[int]:
    return [p * levels // 256 for p in pixels]


def pgm(size: int, pixels: list[int]) -> bytes:
    """Binary P5 image; maxval is 255 whatever the levels used."""
    return f"P5 {size} {size} 255\n".encode() + bytes(pixels)


def grid_edges(size: int, connectivity: int) -> list[tuple[int, int]]:
    """Pixel-graph edges in the order the program's image reader builds them."""
    edges = []
    for y in range(size):
        for x in range(size):
            i = y * size + x
            if x + 1 < size:
                edges.append((i, i + 1))
            if y + 1 < size:
                edges.append((i, i + size))
            if connectivity == 8 and y + 1 < size:
                if x + 1 < size:
                    edges.append((i, i + size + 1))
                if x > 0:
                    edges.append((i, i + size - 1))
    return edges


def gradient_wgr(size: int, pixels: list[int]) -> tuple[str, list[int]]:
    """4-connected .wgr text whose edge weights are gray-level differences.

    Nodes carry no weight, so the program takes the edge-weighted path.
    Returns the text and the edge weights in file order.
    """
    edges = grid_edges(size, 4)
    weights = [abs(pixels[u] - pixels[v]) for u, v in edges]
    lines = [f"node {i}" for i in range(size * size)]
    lines.extend(f"edge {u} {v} {w}" for (u, v), w in zip(edges, weights))
    return "\n".join(lines) + "\n", weights


# ---------------------------------------------------------------------------
# the node-weighted graph the program floods, and its properties
# ---------------------------------------------------------------------------


def pixel_relief(size: int, pixels: list[int], connectivity: int):
    """(nodes, edges, node weights) of a pixel graph."""
    return size * size, grid_edges(size, connectivity), pixels


def edge_relief(n: int, edges: list[tuple[int, int]], weights: list[int]):
    """(nodes, edges, node weights) the program floods for an edge-weighted graph.

    Each node keeps only its lowest edges and weighs as much as they do;
    every other edge plays no part in the erosion.
    """
    low = [None] * n
    for (u, v), w in zip(edges, weights):
        for i in (u, v):
            if low[i] is None or w < low[i]:
                low[i] = w
    kept = [(u, v) for (u, v), w in zip(edges, weights) if w in (low[u], low[v])]
    return n, kept, low


def adjacency(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def flat_zones(values: list[int], adj: list[list[int]]) -> list[list[int]]:
    """Connected sets of equal-valued nodes."""
    seen = [False] * len(values)
    zones = []
    for start in range(len(values)):
        if seen[start]:
            continue
        seen[start] = True
        zone, queue = [start], deque([start])
        while queue:
            i = queue.popleft()
            for j in adj[i]:
                if not seen[j] and values[j] == values[i]:
                    seen[j] = True
                    zone.append(j)
                    queue.append(j)
        zones.append(zone)
    return zones


def regional_minima(values: list[int], adj: list[list[int]]) -> list[list[int]]:
    """Flat zones whose neighbors all lie strictly higher."""
    return [
        zone for zone in flat_zones(values, adj)
        if all(values[j] >= values[zone[0]] for i in zone for j in adj[i])
    ]


def properties(n: int, edges: list[tuple[int, int]], values: list[int]) -> dict:
    """Minima, plateau nodes and tied edges of a node-weighted graph.

    A plateau node sits in a flat zone of two or more nodes that is not a
    regional minimum; a tied edge joins two nodes of equal weight, where
    the program's descents and tie policies have a choice to make.
    """
    adj = adjacency(n, edges)
    minima = regional_minima(values, adj)
    in_min = {i for m in minima for i in m}
    plateau = sum(
        len(z) for z in flat_zones(values, adj) if len(z) > 1 and z[0] not in in_min
    )
    tied = sum(1 for u, v in edges if values[u] == values[v])
    return {
        "minima": minima,
        "plateau_node_share": plateau / n,
        "tied_edge_share": tied / len(edges),
    }
