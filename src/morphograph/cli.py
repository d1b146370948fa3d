"""Command-line surface.

Subcommands map onto the module pipelines: ``flood`` derives and emits a
validated flooding graph, ``prune`` cuts it down to a given steepness,
``watershed`` labels catchment basins, ``waterfall`` builds the full
hierarchy, ``mst`` reports the emergent spanning tree and ``dist``
computes lexicographic distances to the minima with a chosen solver.

Inputs are .wgr text graphs or PGM images (one node per pixel); outputs
are JSON, built by each handler, or DOT or PGM label maps on request.
Runs are deterministic given the options, including the tie seed.  Exit
codes: 0 success, 2 input error (bad flags included), 3 invariant
violation; diagnostics go to stderr as one JSON object per line.

``build_parser`` is the only definition of the options: each flag
declares its default and allowed values once, and each subcommand's
handler is registered on its parser as ``run``.  The parser is built
once per process and each call parses into a fresh namespace; handlers
reach the library through its modules at call time, so a patched module
function is the one that runs.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from typing import Optional, Union

from . import flooding, formats, geodesics, lexalgebra, steepness, waterfall, watershed
from .errors import (
    MalformedImage,
    MalformedInput,
    MissingWeights,
    MorphographError,
)
from .graphs import WeightedGraph

EXIT_INPUT = 2
EXIT_INVARIANT = 3

Shape = Optional[tuple[int, int]]
Output = Union[str, bytes, dict]  # text, raw bytes, or a JSON payload


class _Parser(argparse.ArgumentParser):
    """Raises ``MalformedInput`` on a flag error instead of printing usage
    and exiting; subparsers inherit the class."""

    def error(self, message: str):
        raise MalformedInput(message)


def positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def tie_policy(text: str) -> str:
    """Check the policy but keep the string: each call seeds its own generator."""
    flooding.parse_tie(text)
    return text


def _load(path: str, connectivity: int) -> tuple[WeightedGraph, Shape]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from None
    if path.endswith(".pgm") or data[:2] in (b"P2", b"P5"):
        width, height, _, pixels = formats.parse_pgm(data)
        return formats.pixel_graph(width, height, pixels, connectivity), (width, height)
    try:
        text = data.decode()
    except UnicodeDecodeError:
        raise MalformedInput(f"{path} is neither PGM nor text") from None
    return formats.parse_wgr(text), None


def _write(path: str, data: Union[str, bytes]) -> None:
    try:
        with open(path, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
    except OSError as exc:
        raise MalformedInput(f"cannot write {path}: {exc}") from None


def _emit(output: Optional[str], result: Output) -> None:
    if isinstance(result, dict):
        result = json.dumps(result, sort_keys=True) + "\n"
    if output:
        _write(output, result)
    elif isinstance(result, bytes):
        sys.stdout.buffer.write(result)
    else:
        sys.stdout.write(result)


def _flood(args: argparse.Namespace, g: WeightedGraph, shape: Shape) -> Output:
    return formats.write_wgr(flooding.as_flooding(g))


def _prune(args: argparse.Namespace, g: WeightedGraph, shape: Shape) -> Output:
    return formats.write_wgr(steepness.local_prune(flooding.as_flooding(g), args.steepness - 1))


def _watershed(args: argparse.Namespace, g: WeightedGraph, shape: Shape) -> Output:
    fg = flooding.as_flooding(g)  # its input errors outrank the refusal below
    if args.fmt == "pgm-labels" and shape is None:
        raise MalformedInput("pgm-labels output needs a PGM input")
    labeling = geodesics.basin_labels(fg, args.depth, args.algo, args.tie)
    if args.fmt == "pgm-labels":
        data, legend = formats.labels_to_pgm(shape[0], shape[1], labeling)
        if args.output:
            _write(args.output + ".legend.json", json.dumps(legend, sort_keys=True))
        return data
    if args.fmt == "dot":
        return formats.to_dot(fg, labeling)
    zones = watershed.basins_with_zones(fg, args.depth)
    minima = flooding.minima_sets(flooding.minima_of_flooding(fg))
    return {
        "labels": [labeling.values[i] for i in range(fg.num_nodes) if i not in fg.dummies],
        "minima": [sorted(m - fg.dummies) for m in minima],
        "zones": sorted(zones.zone_nodes() - fg.dummies),
        "zone_components": formats.zone_components(fg, zones),
    }


def _waterfall(args: argparse.Namespace, g: WeightedGraph, shape: Shape) -> Output:
    h = waterfall.build_hierarchy(g, args.depth, args.tie)
    if args.fmt == "dot":
        return "".join(formats.to_dot(lvl.contracted) for lvl in h.levels)
    real = [b for b in range(h.base.num_nodes) if b not in h.base.dummies]
    levels = [
        {"regions": lvl.region_count, "labels": [lvl.partition.values[b] for b in real]}
        for lvl in h.levels
    ]
    # the bytes of json.dumps(payload, sort_keys=True), with one record per
    # base edge formatted directly; "edge_levels" sorts before "levels"
    records = ", ".join([f'{{"edge": [{u}, {v}], "level": {lvl}}}'
                         for (u, v), lvl in zip(h.base.edges, waterfall.merge_levels(h))])
    return f'{{"edge_levels": [{records}], "levels": {json.dumps(levels, sort_keys=True)}}}\n'


def _mst(args: argparse.Namespace, g: WeightedGraph, shape: Shape) -> Output:
    h = waterfall.build_hierarchy(g, args.depth, args.tie)
    edges, ew = h.base.edges, h.base.edge_weights
    tree = sorted(waterfall.emergent_tree(h), key=edges.__getitem__)
    return {
        "edges": [[*edges[eid], ew[eid]] for eid in tree],
        "weight": sum(ew[eid] for eid in tree),
    }


def _dist(args: argparse.Namespace, g: WeightedGraph, shape: Shape) -> Output:
    fg = flooding.as_flooding(g)
    if args.method == "dijkstra":
        dists, labeling = geodesics.dijkstra_to_minima(fg, args.depth, args.tie)
    elif args.method == "core":
        dists, labeling, _ = geodesics.core_expanding(fg, args.depth, args.tie)
    elif fg.num_nodes > lexalgebra.MAX_DENSE_NODES:
        raise MalformedInput(
            f"--method {args.method} takes at most {lexalgebra.MAX_DENSE_NODES} "
            f"nodes, got {fg.num_nodes}; use core or dijkstra"
        )
    else:
        dists, labeling = lexalgebra.distances_to_minima(
            fg, args.depth, args.method.replace("-", "_")
        )
    real = [i for i in range(fg.num_nodes) if i not in fg.dummies]
    return {
        "distances": [dists[i] for i in real],
        "labels": [labeling.values[i] for i in real],
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="morphograph",
        description="watershed, pruning and waterfall hierarchies on weighted graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, tie=True, fmts=None):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("input", help=".wgr graph or PGM image")
        p.add_argument("--depth", type=positive, default=2, metavar="K")
        p.add_argument("--connectivity", type=int, default=4, choices=(4, 8))
        p.add_argument("--output", default=None)
        if tie:
            p.add_argument("--tie", type=tie_policy, default="min-label",
                           metavar="min-label|seed:<u64>")
        if fmts:
            p.add_argument("--format", dest="fmt", default="json", choices=fmts)
        return p

    command("flood", _flood, "derive a validated flooding graph", tie=False)
    p = command("prune", _prune, "prune to a given steepness", tie=False)
    p.add_argument("--steepness", type=positive, default=1, metavar="K")
    p = command("watershed", _watershed, "label catchment basins",
                fmts=("json", "dot", "pgm-labels"))
    p.add_argument("--algo", default="core", choices=("dijkstra", "core", "hq"))
    command("waterfall", _waterfall, "build the full hierarchy", fmts=("json", "dot"))
    command("mst", _mst, "emergent minimum spanning tree")
    p = command("dist", _dist, "lexicographic distances to the minima")
    p.add_argument("--method", default="core", choices=(
        "closure", "jacobi", "gauss-seidel", "jordan", "gondran", "dijkstra", "core"))
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command with the cyclic garbage collector paused.

    A run makes no reference cycles worth collecting (its graphs,
    labelings and rows are acyclic, so reference counting frees them),
    yet the collector's passes rescan the whole growing heap.  The
    caller's collector state comes back on every exit.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        g, shape = _load(args.input, args.connectivity)
        _emit(args.output, args.run(args, g, shape))
        return 0
    except MorphographError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        if isinstance(exc, (MalformedInput, MalformedImage, MissingWeights)):
            return EXIT_INPUT
        return EXIT_INVARIANT
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
