"""Command-line surface.

Subcommands map onto the module pipelines: ``flood`` derives and emits a
validated flooding graph, ``prune`` cuts it down to a given steepness,
``watershed`` labels catchment basins, ``waterfall`` builds the full
hierarchy, ``mst`` reports the emergent spanning tree and ``dist``
computes lexicographic distances to the minima with a chosen solver.

Inputs are .wgr text graphs or PGM images (one node per pixel); outputs
are JSON by default, DOT or PGM label maps on request.  Runs are
deterministic given the configuration, including the tie seed.  Exit
codes: 0 success, 2 input error, 3 invariant violation; diagnostics go
to stderr as one JSON object per line.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

from . import formats, geodesics, lexalgebra, steepness, waterfall, watershed
from .errors import (
    MalformedImage,
    MalformedInput,
    MissingWeights,
    MorphographError,
)
from .flooding import as_flooding, minima_of_flooding, minima_sets, parse_tie
from .graphs import UNSET, WeightedGraph

EXIT_INPUT = 2
EXIT_INVARIANT = 3

DIST_METHODS = ("closure", "jacobi", "gauss-seidel", "jordan", "gondran", "dijkstra", "core")
WATERSHED_ALGOS = ("dijkstra", "core", "hq")
FORMATS = ("json", "dot", "pgm-labels")


@dataclass
class RunConfig:
    command: str
    input_path: str
    depth: int = 2
    steepness: int = 1
    tie: str = "min-label"
    connectivity: int = 4
    fmt: str = "json"
    method: str = "core"
    algo: str = "core"
    output: Optional[str] = None

    def validate(self) -> None:
        if self.depth < 1:
            raise MalformedInput("--depth must be >= 1")
        if self.steepness < 1:
            raise MalformedInput("--steepness must be >= 1")
        if self.connectivity not in (4, 8):
            raise MalformedInput("--connectivity must be 4 or 8")
        if self.fmt not in FORMATS:
            raise MalformedInput(f"--format must be one of {FORMATS}")
        try:
            parse_tie(self.tie)
        except ValueError as exc:
            raise MalformedInput(f"--tie: {exc}") from None


def _load(config: RunConfig) -> tuple[WeightedGraph, Optional[tuple[int, int]]]:
    path = config.input_path
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from None
    if path.endswith(".pgm") or data[:2] in (b"P2", b"P5"):
        width, height, _, pixels = formats.parse_pgm(data)
        return formats.pixel_graph(width, height, pixels, config.connectivity), (width, height)
    try:
        text = data.decode()
    except UnicodeDecodeError:
        raise MalformedInput(f"{path} is neither PGM nor text") from None
    return formats.parse_wgr(text), None


def _emit(config: RunConfig, text: Optional[str] = None, data: Optional[bytes] = None) -> None:
    if config.output:
        mode = "wb" if data is not None else "w"
        with open(config.output, mode) as fh:
            fh.write(data if data is not None else text)
    elif data is not None:
        sys.stdout.buffer.write(data)
    else:
        sys.stdout.write(text)


def _jsonify_dist(d) -> Optional[list]:
    return None if d is None else list(d)


def run(config: RunConfig) -> int:
    config.validate()
    g, shape = _load(config)

    if config.command == "flood":
        fg = as_flooding(g)
        _emit(config, text=formats.write_wgr(fg))
        return 0

    if config.command == "prune":
        fg = as_flooding(g)
        pruned = steepness.local_prune(fg, config.steepness - 1)
        _emit(config, text=formats.write_wgr(pruned))
        return 0

    if config.command == "watershed":
        fg = as_flooding(g)
        if config.algo == "dijkstra":
            _, labeling = geodesics.dijkstra_to_minima(fg, config.depth, config.tie)
        elif config.algo == "core":
            _, labeling, _ = geodesics.core_expanding(fg, config.depth, config.tie)
        else:
            labeling = geodesics.hq_watershed(fg)
        if config.fmt == "pgm-labels":
            if shape is None:
                raise MalformedInput("pgm-labels output needs a PGM input")
            data, legend = formats.labels_to_pgm(shape[0], shape[1], labeling)
            _emit(config, data=data)
            if config.output:
                with open(config.output + ".legend.json", "w") as fh:
                    json.dump(legend, fh, sort_keys=True)
            return 0
        if config.fmt == "dot":
            _emit(config, text=formats.to_dot(fg, labeling))
            return 0
        zones = watershed.basins_with_zones(fg, config.depth)
        payload = formats.labels_json(fg, labeling, minima_sets(minima_of_flooding(fg)))
        payload["zones"] = sorted(zones.zone_nodes() - fg.dummies)
        payload["zone_components"] = formats.zone_components(fg, zones)
        _emit(config, text=json.dumps(payload, sort_keys=True) + "\n")
        return 0

    if config.command == "waterfall":
        h = waterfall.build_hierarchy(g, config.depth, config.tie)
        if config.fmt == "dot":
            parts = [formats.to_dot(lvl.contracted) for lvl in h.levels]
            _emit(config, text="".join(parts))
            return 0
        real = [b for b in range(h.base.num_nodes) if b not in h.base.dummies]
        payload = {
            "levels": [
                {
                    "regions": lvl.region_count,
                    "labels": [lvl.partition.values[b] for b in real],
                }
                for lvl in h.levels
            ],
            "edge_levels": [
                {"edge": list(h.base.edges[eid]), "level": lvl}
                for eid, lvl in enumerate(waterfall.merge_levels(h))
            ],
        }
        _emit(config, text=json.dumps(payload, sort_keys=True) + "\n")
        return 0

    if config.command == "mst":
        h = waterfall.build_hierarchy(g, config.depth, config.tie)
        tree = waterfall.emergent_tree(h)
        ew = h.base.edge_weights
        edges = sorted(h.base.edges[eid] for eid in tree)
        payload = {
            "edges": [[u, v, ew[h.base.edge_id(u, v)]] for (u, v) in edges],
            "weight": sum(ew[eid] for eid in tree),
        }
        _emit(config, text=json.dumps(payload, sort_keys=True) + "\n")
        return 0

    if config.command == "dist":
        fg = as_flooding(g)
        method = config.method.replace("-", "_")
        if config.method == "dijkstra":
            dists, labeling = geodesics.dijkstra_to_minima(fg, config.depth, config.tie)
        elif config.method == "core":
            dists, labeling, _ = geodesics.core_expanding(fg, config.depth, config.tie)
        else:
            if fg.num_nodes > lexalgebra.MAX_DENSE_NODES:
                raise MalformedInput(
                    f"--method {config.method} takes at most {lexalgebra.MAX_DENSE_NODES} "
                    f"nodes, got {fg.num_nodes}; use core or dijkstra"
                )
            dists, labeling = lexalgebra.distances_to_minima(fg, config.depth, method)
        real = [i for i in range(fg.num_nodes) if i not in fg.dummies]
        payload = {
            "distances": [_jsonify_dist(dists[i]) for i in real],
            "labels": [labeling.values[i] if labeling.values[i] != UNSET else 0 for i in real],
        }
        _emit(config, text=json.dumps(payload, sort_keys=True) + "\n")
        return 0

    raise MalformedInput(f"unknown command {config.command!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphograph",
        description="watershed, pruning and waterfall hierarchies on weighted graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tie=True):
        p.add_argument("input", help=".wgr graph or PGM image")
        p.add_argument("--depth", type=int, default=2, metavar="K")
        p.add_argument("--connectivity", type=int, default=4, choices=(4, 8))
        p.add_argument("--format", dest="fmt", default="json", choices=FORMATS)
        p.add_argument("--output", default=None)
        if tie:
            p.add_argument("--tie", default="min-label", metavar="min-label|seed:<u64>")

    common(sub.add_parser("flood", help="derive a validated flooding graph"), tie=False)
    p = sub.add_parser("prune", help="prune to a given steepness")
    common(p, tie=False)
    p.add_argument("--steepness", type=int, default=1, metavar="K")
    p = sub.add_parser("watershed", help="label catchment basins")
    common(p)
    p.add_argument("--algo", default="core", choices=WATERSHED_ALGOS)
    common(sub.add_parser("waterfall", help="build the full hierarchy"))
    common(sub.add_parser("mst", help="emergent minimum spanning tree"))
    p = sub.add_parser("dist", help="lexicographic distances to the minima")
    common(p)
    p.add_argument("--method", default="core", choices=DIST_METHODS)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(
        command=args.command,
        input_path=args.input,
        depth=getattr(args, "depth", 2),
        steepness=getattr(args, "steepness", 1),
        tie=getattr(args, "tie", "min-label"),
        connectivity=getattr(args, "connectivity", 4),
        fmt=getattr(args, "fmt", "json"),
        method=getattr(args, "method", "core"),
        algo=getattr(args, "algo", "core"),
        output=getattr(args, "output", None),
    )
    try:
        return run(config)
    except (MalformedInput, MalformedImage, MissingWeights) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
            file=sys.stderr,
        )
        return EXIT_INPUT
    except MorphographError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
            file=sys.stderr,
        )
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
