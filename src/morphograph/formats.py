"""File formats: .wgr text graphs, PGM rasters, DOT and zone exports.

The .wgr format is line based: ``node <id> [<weight>]``, ``edge <u> <v>
[<weight>]`` and ``#`` comments.  Ids are 0-based and dense; a missing
weight column means the carrier is unweighted, and mixing weighted with
unweighted lines on one carrier is an error.  A node weight is a level
in [0, W_MAX], or TOP on a node that no edge touches in a graph with
weighted edges: the weight the flooding graph gives such a node.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterator, Optional

from .errors import MalformedImage, MalformedInput
from .graphs import Labeling, UNSET, ZONE, WeightedGraph, _union
from .weights import TOP, W_MAX

PGM_MAXVAL = 65535  # the largest gray level the PGM format allows
BLOCK = 4096  # lines, or list items, per chunk of streamed output


def _level(token: str, lineno: int) -> int:
    """A node weight: a level in [0, W_MAX], or TOP."""
    value = int(token)
    if not (0 <= value <= W_MAX or value == TOP):
        raise MalformedInput(f"line {lineno}: weight {value} outside [0, {W_MAX}]")
    return value


def parse_wgr(text: str) -> WeightedGraph:
    """One pass over the lines; the first bad line raises ``MalformedInput``."""
    nodes: dict[int, Optional[int]] = {}
    edges: list[tuple[int, int]] = []
    edge_w: list[Optional[int]] = []
    dummies: set[int] = set()
    try:  # every ValueError below is a line that does not parse
        for lineno, raw in enumerate(text.splitlines(), start=1):
            parts = raw.split("#", 1)[0].split() if "#" in raw else raw.split()
            if len(parts) == 4 and parts[0] == "edge":  # the commonest line first
                _, u, v, w = parts
                edges.append((int(u), int(v)))
                w = int(w)
                if not 0 <= w <= W_MAX:
                    raise MalformedInput(f"line {lineno}: weight {w} outside [0, {W_MAX}]")
                edge_w.append(w)
            elif not parts:
                if raw.strip().startswith("# dummy"):
                    parts = raw.split()
                    if len(parts) == 3 and parts[1] == "dummy" and parts[2].isdecimal():
                        dummies.add(int(parts[2]))
            elif parts[0] == "edge" and len(parts) == 3:
                edges.append((int(parts[1]), int(parts[2])))
                edge_w.append(None)
            elif parts[0] == "node" and 2 <= len(parts) <= 3:
                nid = int(parts[1])
                if nid in nodes:
                    raise MalformedInput(f"line {lineno}: duplicate node {nid}")
                nodes[nid] = _level(parts[2], lineno) if len(parts) == 3 else None
            else:
                raise ValueError
    except ValueError:
        raise MalformedInput(f"line {lineno}: cannot parse {raw!r}") from None
    n = len(nodes)
    if not n:
        raise MalformedInput("input graph has no nodes")
    if min(nodes) != 0 or max(nodes) != n - 1:  # n distinct ids
        raise MalformedInput("node ids must be dense 0..N-1")
    node_vals = list(map(nodes.__getitem__, range(n)))
    if 0 < node_vals.count(None) < n:
        raise MalformedInput("either all nodes carry a weight or none")
    if 0 < edge_w.count(None) < len(edge_w):
        raise MalformedInput("either all edges carry a weight or none")
    edges_weighted = bool(edge_w) and edge_w[0] is not None
    # TOP, the empty infimum, is what ``flood`` and ``prune`` write on a
    # node no edge touches; anywhere else it could reach an edge weight
    if TOP in node_vals:
        touched = {i for e in edges for i in e}
        for i, w in enumerate(node_vals):
            if w == TOP and (i in touched or not edges_weighted):
                raise MalformedInput(f"node {i}: weight {TOP} only if no edge touches it "
                                     "and the edges are weighted")
    try:
        return WeightedGraph(
            n,
            tuple(edges),
            tuple(node_vals) if node_vals[0] is not None else None,
            tuple(edge_w) if edges_weighted else None,
            frozenset(dummies),
        )
    except ValueError as exc:
        raise MalformedInput(str(exc)) from None


def wgr_chunks(g: WeightedGraph) -> Iterator[str]:
    """The .wgr text of ``g``, BLOCK lines a chunk, each id formatted once."""
    ids, nw, ew = list(map(str, range(g.num_nodes))), g.node_weights, g.edge_weights
    for s in range(0, g.num_nodes, BLOCK):
        block = ids[s : s + BLOCK]
        yield "".join([f"node {i}\n" for i in block] if nw is None else
                      [f"node {i} {w}\n" for i, w in zip(block, nw[s : s + BLOCK])])
    yield "".join([f"# dummy {i}\n" for i in sorted(g.dummies)])
    for s in range(0, len(g.edges), BLOCK):
        block = g.edges[s : s + BLOCK]
        yield "".join([f"edge {ids[u]} {ids[v]}\n" for u, v in block] if ew is None else
                      [f"edge {ids[u]} {ids[v]} {w}\n"
                       for (u, v), w in zip(block, ew[s : s + BLOCK])])


def write_wgr(g: WeightedGraph) -> str:
    return "".join(wgr_chunks(g)) or "\n"  # a graph without nodes is one empty line


# ---------------------------------------------------------------------------
# PGM rasters
# ---------------------------------------------------------------------------


def parse_pgm(data: bytes) -> tuple[int, int, int, list[int]]:
    """Parse P2/P5; returns (width, height, maxval, row-major pixels)."""
    pos = 0

    def token() -> bytes:
        nonlocal pos
        while pos < len(data):
            if data[pos : pos + 1].isspace():
                pos += 1
            elif data[pos : pos + 1] == b"#":
                while pos < len(data) and data[pos : pos + 1] != b"\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise MalformedImage("unexpected end of PGM header")
        return data[start:pos]

    magic = token()
    if magic not in (b"P2", b"P5"):
        raise MalformedImage(f"not a PGM: magic {magic!r}")
    try:
        width, height, maxval = int(token()), int(token()), int(token())
    except (ValueError, MalformedImage):
        raise MalformedImage("bad PGM header") from None
    if width <= 0 or height <= 0:
        raise MalformedImage("bad PGM dimensions")
    if not 1 <= maxval <= PGM_MAXVAL:
        raise MalformedImage(f"PGM maxval {maxval} outside [1, {PGM_MAXVAL}]")
    count = width * height
    if magic == b"P2":
        try:
            pixels = [int(token()) for _ in range(count)]
        except MalformedImage:
            raise MalformedImage("truncated P2 pixel data") from None
        except ValueError:
            raise MalformedImage("P2 pixel is not a number") from None
    else:
        pos += 1  # single whitespace after maxval
        per = 2 if maxval > 255 else 1
        raw = data[pos : pos + count * per]
        if len(raw) != count * per:
            raise MalformedImage("truncated P5 pixel data")
        pixels = list(raw) if per == 1 else [hi << 8 | lo for hi, lo in zip(raw[::2], raw[1::2])]
    if min(pixels) < 0 or max(pixels) > maxval:  # count > 0: width, height >= 1
        raise MalformedImage("pixel outside [0, maxval]")
    return width, height, maxval, pixels


def write_pgm(width: int, height: int, pixels: list[int], maxval: int = 255) -> bytes:
    """Binary P5 image; pixels above ``maxval`` are clipped to it, and a
    maxval above 255 takes two big-endian bytes per pixel."""
    if not 1 <= maxval <= PGM_MAXVAL:
        raise ValueError(f"PGM maxval {maxval} outside [1, {PGM_MAXVAL}]")
    header = f"P5 {width} {height} {maxval}\n".encode()
    if max(pixels, default=0) > maxval:
        pixels = [min(p, maxval) for p in pixels]
    if maxval > 255:
        return header + b"".join([p.to_bytes(2, "big") for p in pixels])
    return header + bytes(pixels)


def image_to_graph(data: bytes, connectivity: int = 4) -> WeightedGraph:
    """Pixel graph of a PGM image (see :func:`pixel_graph`)."""
    width, height, _, pixels = parse_pgm(data)
    return pixel_graph(width, height, pixels, connectivity)


def pixel_graph(width: int, height: int, pixels: list[int], connectivity: int = 4) -> WeightedGraph:
    """Pixel graph: one node per pixel (row-major), gray level as weight."""
    if connectivity not in (4, 8):
        raise MalformedImage(f"connectivity must be 4 or 8, got {connectivity}")
    edges = []
    for y in range(height):
        for x in range(width):
            i = y * width + x
            if x + 1 < width:
                edges.append((i, i + 1))
            if y + 1 < height:
                edges.append((i, i + width))
            if connectivity == 8 and y + 1 < height:
                if x + 1 < width:
                    edges.append((i, i + width + 1))
                if x > 0:
                    edges.append((i, i + width - 1))
    # grid pairs are sorted, in range and distinct by construction
    return WeightedGraph._derive(width * height, tuple(edges), tuple(pixels), None, frozenset())


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def zone_components(g: WeightedGraph, labeling: Labeling) -> list[list[int]]:
    """Connected components of the ZONE set, each ascending, in order of
    their smallest node.  Past one pass over the edges, the cost is the
    zone's: the union-find runs over the zone nodes alone."""
    values = labeling.values
    parent = {i: i for i in compress(range(len(values)), map(ZONE.__eq__, values))}
    for u, v in g.edges:
        if u in parent and v in parent:
            _union(parent, u, v)
    groups: dict[int, list[int]] = {}
    for i in parent:  # ascending: i links to a smaller node, which links to its root
        parent[i] = parent[parent[i]]
        groups.setdefault(parent[i], []).append(i)
    return list(groups.values())


def to_dot(g: WeightedGraph, labeling: Optional[Labeling] = None) -> str:
    ids = list(map(str, range(g.num_nodes)))  # each id formatted once
    lines = ["graph {"]
    for i in range(g.num_nodes):
        attrs = []
        if g.node_weights is not None:
            attrs.append(f'label="{ids[i]}:{g.node_weights[i]}"')
        if labeling is not None and labeling.values[i] != UNSET:
            lab = labeling.values[i]
            attrs.append(f'group="{ "Z" if lab == ZONE else lab }"')
        if i in g.dummies:
            attrs.append("style=dashed")
        lines.append(f"  {ids[i]} [{', '.join(attrs)}];" if attrs else f"  {ids[i]};")
    for eid, (u, v) in enumerate(g.edges):
        if g.edge_weights is not None:
            lines.append(f'  {ids[u]} -- {ids[v]} [label="{g.edge_weights[eid]}"];')
        else:
            lines.append(f"  {ids[u]} -- {ids[v]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def labels_to_pgm(width: int, height: int, labeling: Labeling) -> tuple[bytes, dict]:
    """Label map, gray ``1 + (label - 1) mod 254`` (0 for zones/unset), plus a legend."""
    values = labeling.values[: width * height]
    gray = {lab: 0 if lab in (ZONE, UNSET) else 1 + (lab - 1) % 254 for lab in set(values)}
    legend = {"Z" if lab == ZONE else str(lab): g for lab, g in gray.items()}
    return write_pgm(width, height, bytes(map(gray.__getitem__, values))), {"gray": legend}
