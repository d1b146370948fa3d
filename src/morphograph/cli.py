"""Command-line surface.

Subcommands map onto the module pipelines: ``flood`` derives and emits a
validated flooding graph, ``prune`` cuts it down to a given steepness,
``watershed`` labels catchment basins, ``waterfall`` builds the full
hierarchy, ``mst`` reports the emergent spanning tree and ``dist``
computes lexicographic distances to the minima with a chosen solver.

Inputs are .wgr text graphs or PGM images (one node per pixel); outputs
are JSON, DOT or PGM label maps.  Each handler runs every step that can
fail, then returns its output as chunks that ``_emit`` writes in order,
so a refused run writes nothing.
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
import contextlib
import functools
import gc
import json
import os
import sys
from itertools import chain, compress
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from . import flooding, formats, geodesics, lexalgebra, steepness, waterfall, watershed
from .errors import MalformedImage, MalformedInput, MissingWeights, MorphographError
from .graphs import WeightedGraph

EXIT_INPUT = 2
EXIT_INVARIANT = 3

Shape = Optional[tuple[int, int]]
Chunks = Iterable[Union[str, bytes]]  # output text or raw bytes, in order


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


def _emit(output: Optional[str], chunks: Chunks) -> None:
    """Write the chunks in order to ``output``, or to stdout when it is None.
    A reader that closes stdout early ends the writing quietly."""
    try:
        with open(output, "w") if output else contextlib.nullcontext(sys.stdout) as out:
            for chunk in chunks:
                if isinstance(chunk, str):
                    out.write(chunk)
                else:  # after the text written before it
                    out.flush()
                    out.buffer.write(chunk)
            out.flush()  # a reader gone from stdout shows here, not at exit
    except OSError as exc:
        if output:
            raise MalformedInput(f"cannot write {output}: {exc}") from None
        if not isinstance(exc, BrokenPipeError):
            raise
        devnull = os.open(os.devnull, os.O_WRONLY)  # the flush at exit goes nowhere
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _listed(head: str, items: Sequence, tail: str,
            text: Callable[[Sequence], str] = lambda b: json.dumps(b)[1:-1]) -> Iterator[str]:
    """``head``, the JSON list of ``items`` in chunks of BLOCK items, ``tail``;
    ``text`` gives a block's items joined by ", "."""
    yield head + "["
    for s in range(0, len(items), formats.BLOCK):
        yield (", " if s else "") + text(items[s : s + formats.BLOCK])
    yield "]" + tail


def _real(values: Sequence, g: WeightedGraph) -> Sequence:
    """``values`` without the entries of ``g``'s dummies: a slice when they
    are the last ids, as ``expand_isolated_minima`` makes them."""
    cut = g.num_nodes - len(g.dummies)
    if min(g.dummies, default=cut) == cut:
        return values[:cut]
    return [x for i, x in enumerate(values) if i not in g.dummies]


def _flood(args: argparse.Namespace, g: WeightedGraph, shape: Shape) -> Chunks:
    return formats.wgr_chunks(flooding.as_flooding(g))


def _prune(args: argparse.Namespace, g: WeightedGraph, shape: Shape) -> Chunks:
    return formats.wgr_chunks(steepness.local_prune(flooding.as_flooding(g), args.steepness - 1))


def _watershed(args: argparse.Namespace, g: WeightedGraph, shape: Shape) -> Chunks:
    fg = flooding.as_flooding(g)  # its input errors outrank the refusal below
    if args.fmt == "pgm-labels" and shape is None:
        raise MalformedInput("pgm-labels output needs a PGM input")
    labeling = geodesics.basin_labels(fg, args.depth, args.algo, args.tie)
    if args.fmt == "pgm-labels":
        data, legend = formats.labels_to_pgm(shape[0], shape[1], labeling)
        if args.output:
            _emit(args.output + ".legend.json", [json.dumps(legend, sort_keys=True)])
        return [data]
    if args.fmt == "dot":
        return [formats.to_dot(fg, labeling)]
    components = formats.zone_components(fg, watershed.basins_with_zones(fg, args.depth))
    labels = flooding.minima_of_flooding(fg).values
    minima: list[list[int]] = [[] for _ in range(max(labels))]
    for i in compress(range(len(labels)), labels):  # the nodes of the minima
        if i not in fg.dummies:
            minima[labels[i] - 1].append(i)
    zones = [i for i in sorted(chain.from_iterable(components)) if i not in fg.dummies]
    # the bytes of json.dumps(payload, sort_keys=True)
    return _listed('{"labels": ', _real(labeling.values, fg),
                   f', "minima": {json.dumps(minima)}, "zone_components": '
                   f'{json.dumps(components)}, "zones": {json.dumps(zones)}}}\n')


def _waterfall(args: argparse.Namespace, g: WeightedGraph, shape: Shape) -> Chunks:
    h = waterfall.build_hierarchy(g, args.depth, args.tie)
    if args.fmt == "dot":
        return map(formats.to_dot, [lvl.contracted for lvl in h.levels])
    edges, merged = h.base.edges, waterfall.merge_levels(h)
    ids = list(map(str, range(h.base.num_nodes)))  # each id formatted once
    # the bytes of json.dumps(payload, sort_keys=True), with one record per
    # base edge formatted directly; "edge_levels" sorts before "levels"
    records = _listed('{"edge_levels": ', range(len(edges)), ', "levels": [', lambda r: ", ".join(
        [f'{{"edge": [{ids[u]}, {ids[v]}], "level": {lvl}}}'
         for (u, v), lvl in zip(edges[r.start : r.stop], merged[r.start : r.stop])]))
    levels = (_listed(", " * (k > 0) + '{"labels": ', _real(lvl.partition.values, h.base),
                      f', "regions": {lvl.region_count}}}') for k, lvl in enumerate(h.levels))
    return chain(records, chain.from_iterable(levels), ["]}\n"])


def _mst(args: argparse.Namespace, g: WeightedGraph, shape: Shape) -> Chunks:
    h = waterfall.build_hierarchy(g, args.depth, args.tie)
    edges, ew = h.base.edges, h.base.edge_weights
    tree = sorted(waterfall.emergent_tree(h), key=edges.__getitem__)
    return _listed('{"edges": ', tree, f', "weight": {sum(ew[e] for e in tree)}}}\n',
                   lambda block: json.dumps([[*edges[e], ew[e]] for e in block])[1:-1])


def _dist(args: argparse.Namespace, g: WeightedGraph, shape: Shape) -> Chunks:
    fg = flooding.as_flooding(g)
    if args.method == "dijkstra":
        dists, labeling = geodesics.dijkstra_to_minima(fg, args.depth, args.tie)
    elif args.method == "core":
        dists, labeling, _ = geodesics.core_expanding(fg, args.depth, args.tie)
    elif fg.num_nodes > lexalgebra.MAX_DENSE_NODES:
        raise MalformedInput(f"--method {args.method} takes at most {lexalgebra.MAX_DENSE_NODES} "
                             f"nodes, got {fg.num_nodes}; use core or dijkstra")
    else:
        dists, labeling = lexalgebra.distances_to_minima(fg, args.depth,
                                                         args.method.replace("-", "_"))
    return chain(_listed('{"distances": ', _real(dists, fg), ""),
                 _listed(', "labels": ', _real(labeling.values, fg), "}\n"))


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
        _emit(args.output, args.run(args, g, shape))  # every check runs before the first byte
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
