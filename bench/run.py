"""Seeded end-to-end benchmark of the morphograph CLI pipelines.

Usage, from the root of a checkout:

    python3 bench/run.py --workload relief --seed 1 --seconds 20 --trace 0

One process runs one workload: a single-threaded closed loop with one
client that calls ``morphograph.cli.main(argv)`` in-process on generated
input files, with ``--output`` in a temporary directory of the checkout.
Each op (one CLI call, or the five dense solvers on one image) is timed
on its own; its output is checked afterwards, outside the timed region.
The loop runs every op on every generated input once, then keeps cycling
until ``--seconds`` have passed.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics, at reference speed (see reference.py).  With
``--trace 1`` the same loop runs, then every op runs on the first input
twice more, untraced and then with each layer's public functions wrapped
(see tracer.py), and the JSON holds the per-layer metrics.  The spans go
to ``.bench_out/``.  README.md in this directory says why each workload
exists and which metric each layer should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import oracles
import terrains
from reference import reference_s
from tracer import LAYERS, Tracer, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 3
# End-to-end times are scaled to a machine on which one pass of the
# reference loop (reference.py) takes REF_S seconds: an op's wall time
# times REF_S over the mean reference time measured around it.
REF_S = 0.025
DENSE_METHODS = ("closure", "jacobi", "gauss-seidel", "jordan", "gondran")
COMMANDS = ("flood", "prune", "watershed", "waterfall", "mst", "dist", "oracle")
COUNTED = (
    "flooding.validate_flooding", "flooding.minima_of_flooding", "graphs.regional_minima",
    "graphs.flat_zones", "adjunction.erode_edges_to_nodes", "steepness.minimal_track_edges",
    "flooding.flooding_from_edges", "flooding.assign_pairs", "watershed.drainage_forest",
    "watershed.basins_with_zones", "graphs.contract",
)


@dataclass
class Input:
    path: str
    nodes: int                 # input nodes, dummies excluded
    relief: tuple              # (nodes, edges, node weights) the program floods
    base_nodes: int            # nodes of the waterfall base graph, dummies included
    mst_weight: int
    props: dict
    verdicts: dict = field(default_factory=dict)   # (op, output sha) -> error or None
    digests: dict = field(default_factory=dict)    # op -> set of output shas
    levels: Optional[int] = None
    jordan_mislabeled: int = 0                     # dense only: see oracles.check_dense


@dataclass
class Op:
    name: str
    command: str               # which cmd.<command>_s metric it feeds
    calls: list                # argv per CLI call; "{in}" stands for the input path
    check: Callable            # (outputs, Input, out_path) -> error or None


@dataclass
class Workload:
    depth: int
    connectivity: int
    ops: list
    inputs: list


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def image_input(path: str, size: int, pixels: list[int], connectivity: int) -> Input:
    with open(path, "wb") as fh:
        fh.write(terrains.pgm(size, pixels))
    relief = terrains.pixel_relief(size, pixels, connectivity)
    props = terrains.properties(*relief)
    # The program twins every one-pixel minimum with a dummy node joined
    # by an edge of the pixel's weight; edges weigh the max of their pixels.
    singles = [m[0] for m in props["minima"] if len(m) == 1]
    n, edges, _ = relief
    weights = [max(pixels[u], pixels[v]) for u, v in edges]
    mst = oracles.kruskal_weight(n, edges, weights) + sum(pixels[i] for i in singles)
    return Input(path, n, relief, n + len(singles), mst, props)


def wgr_input(path: str, size: int, pixels: list[int]) -> Input:
    text, weights = terrains.gradient_wgr(size, pixels)
    with open(path, "w") as fh:
        fh.write(text)
    n, edges = size * size, terrains.grid_edges(size, 4)
    relief = terrains.edge_relief(n, edges, weights)
    return Input(path, n, relief, n, oracles.kruskal_weight(n, edges, weights),
                 terrains.properties(*relief))


# depth and connectivity of each workload's CLI calls, and its input count:
# as many inputs as a pass can cover in well under a 20 s run, so that a
# run's cost averages over several terrains and still ends on time.
SETTINGS = {"relief": (2, 4, 2), "plateau": (4, 8, 2), "hierarchy": (2, 4, 6),
            "dense": (3, 4, 16)}
# The traced pass runs every op on the first TRACED_INPUTS inputs only.
TRACED_INPUTS = 1


def make_workload(name: str, seed: int, work: str) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    depth, connectivity, count = SETTINGS[name]
    out = "{out}"

    def flood_check(outputs, inp, _):
        allowed = set(inp.relief[1])
        return oracles.check_flooding(outputs[0].decode(), inp.relief[2], allowed)

    def watershed_check(outputs, inp, _):
        return oracles.check_watershed(json.loads(outputs[0])["labels"], inp.props["minima"])

    def label_image_check(outputs, inp, out_path):
        with open(out_path + ".legend.json", "rb") as fh:
            json.load(fh)
        return oracles.check_label_image(outputs[0], inp.props["minima"])

    def waterfall_check(outputs, inp, _):
        payload = json.loads(outputs[0])
        inp.levels = len(payload["levels"])
        return oracles.check_waterfall(payload, len(inp.props["minima"]))

    def mst_check(outputs, inp, _):
        return oracles.check_mst(json.loads(outputs[0]), inp.base_nodes, inp.mst_weight)

    def dist_check(outputs, inp, _):
        reference = reference_distances(inp, depth, connectivity)
        return oracles.check_distances(json.loads(outputs[0]), reference, inp.relief, depth,
                                       inp.props["minima"])

    def dense_check(outputs, inp, _):
        error, inp.jordan_mislabeled = oracles.check_dense(dict(zip(DENSE_METHODS, outputs)))
        return error

    def op(name, command, argv, check):
        return Op(name, command, [argv + common + ["--output", out]], check)

    common = ["--depth", str(depth), "--connectivity", str(connectivity)]
    if name == "relief":
        inputs = [image_input(os.path.join(work, f"relief{i}.pgm"), 128,
                              terrains.voronoi_relief(rng, 128, 13, 8), connectivity)
                  for i in range(count)]
        ops = [
            op("flood", "flood", ["flood", "{in}"], flood_check),
            op("prune", "prune", ["prune", "{in}", "--steepness", "3"], flood_check),
            op("watershed-core", "watershed", ["watershed", "{in}", "--algo", "core"],
               watershed_check),
            op("watershed-dijkstra", "watershed",
               ["watershed", "{in}", "--algo", "dijkstra"], watershed_check),
            op("watershed-hq-pgm", "watershed",
               ["watershed", "{in}", "--algo", "hq", "--format", "pgm-labels"],
               label_image_check),
            op("dist-core", "dist", ["dist", "{in}", "--method", "core"], dist_check),
        ]
    elif name == "plateau":
        common += ["--tie", f"seed:{rng.randrange(2**32)}"]
        inputs = [image_input(os.path.join(work, f"plateau{i}.pgm"), 128,
                              terrains.quantize(terrains.voronoi_relief(rng, 128, 3, 8), 4),
                              connectivity)
                  for i in range(count)]
        ops = [op("mst", "mst", ["mst", "{in}"], mst_check),
               op("waterfall", "waterfall", ["waterfall", "{in}"], waterfall_check)]
        ops += [op(f"watershed-{algo}", "watershed",
                   ["watershed", "{in}", "--algo", algo], watershed_check)
                for algo in ("core", "dijkstra", "hq")]
    elif name == "hierarchy":
        common += ["--tie", "min-label"]
        inputs = [wgr_input(os.path.join(work, f"hierarchy{i}.wgr"), 128,
                            terrains.voronoi_relief(rng, 128, 13, 8))
                  for i in range(count)]
        ops = [op("mst", "mst", ["mst", "{in}"], mst_check),
               op("waterfall", "waterfall", ["waterfall", "{in}"], waterfall_check)]
    else:
        inputs = [image_input(os.path.join(work, f"dense{i}.pgm"), 12,
                              terrains.voronoi_relief(rng, 12, 2, 8), connectivity)
                  for i in range(count)]
        ops = [Op("dense-solvers", "oracle",
                  [["dist", "{in}", "--method", m] + common + ["--output", out]
                   for m in DENSE_METHODS],
                  dense_check)]
    return Workload(depth, connectivity, ops, inputs)


def flooding_graph(inp: Input, connectivity: int):
    """The input's flooding graph, built by the program's library, untimed."""
    formats = sys.modules["morphograph.formats"]
    flooding = sys.modules["morphograph.flooding"]
    with open(inp.path, "rb") as fh:
        data = fh.read()
    if inp.path.endswith(".wgr"):
        return flooding.flooding_from_edges(formats.parse_wgr(data.decode()))
    return flooding.flooding_from_nodes(formats.image_to_graph(data, connectivity))


def reference_distances(inp: Input, depth: int, connectivity: int) -> dict:
    """The distances ``dist --method core`` must print, from ``dijkstra_to_minima``."""
    fg = flooding_graph(inp, connectivity)
    dists, _ = sys.modules["morphograph.geodesics"].dijkstra_to_minima(fg, depth, "min-label")
    real = [i for i in range(fg.num_nodes) if i not in fg.dummies]
    return {"distances": [None if dists[i] is None else list(dists[i]) for i in real]}


def zone_nodes(inp: Input, depth: int, connectivity: int) -> int:
    """Tie-zone nodes of ``basins_with_zones`` on the input's flooding graph."""
    fg = flooding_graph(inp, connectivity)
    zones = sys.modules["morphograph.watershed"].basins_with_zones(fg, depth).zone_nodes()
    return len(zones - fg.dummies)


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


def import_program():
    """Import morphograph afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "morphograph" or n.startswith("morphograph.")]:
        del sys.modules[name]
    cli = importlib.import_module("morphograph.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"morphograph came from {cli.__file__}, not {SRC}")


class Runner:
    """Runs ops, checks their outputs and keeps the failure count."""

    def __init__(self, work: str):
        self.out = os.path.join(work, "out")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, op: Op, inp: Input, spans: list) -> Optional[str]:
        """Run the op's CLI calls, appending each call's (start, end) to spans."""
        main = sys.modules["morphograph.cli"].main
        for k, argv in enumerate(op.calls):
            argv = [inp.path if a == "{in}" else f"{self.out}{k}" if a == "{out}" else a
                    for a in argv]
            start = time.perf_counter()
            code = main(argv)
            spans.append((start, time.perf_counter()))
            if code != 0:
                return f"{op.calls[k][0]} exited with {code}"
        return None

    def run(self, op: Op, inp: Input) -> list[tuple[float, float]]:
        """One timed op, then its untimed check; returns each call's (start, end)."""
        gc.collect()
        self.attempted += 1
        spans: list = []
        try:
            error = self.call(op, inp, spans)
        except Exception as exc:  # a crash is a failed op, not a failed benchmark
            error = f"{type(exc).__name__}: {exc}"
        if error is None:
            error = self.check(op, inp, [f"{self.out}{k}" for k in range(len(op.calls))])
        if error is not None:
            self.failed += 1
            self.errors.append(f"{op.name} on {os.path.basename(inp.path)}: {error}")
        return spans

    @staticmethod
    def check(op: Op, inp: Input, paths: list[str]) -> Optional[str]:
        outputs = []
        for path in paths:
            with open(path, "rb") as fh:
                outputs.append(fh.read())
        sha = hashlib.sha256(b"".join(outputs)).hexdigest()
        inp.digests.setdefault(op.name, set()).add(sha)
        key = (op.name, sha)
        if key not in inp.verdicts:
            try:
                inp.verdicts[key] = op.check(outputs, inp, paths[0])
            except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
                inp.verdicts[key] = f"unreadable output: {type(exc).__name__}: {exc}"
        return inp.verdicts[key]


def schedule(wl: Workload, inputs: Optional[int] = None) -> list:
    """One pass: every op on the first input, then on the next."""
    return [(op, i) for i in range(len(wl.inputs[:inputs])) for op in wl.ops]


def at_ref_speed(wall: float, before: float, after: float) -> float:
    """A wall time scaled by the reference times measured before and after it."""
    return wall * REF_S / ((before + after) / 2)


def measure(wl: Workload, runner: Runner, seconds: float) -> tuple[dict, dict, list]:
    """Closed loop: every op on every input once, then cycle until time is up.

    The reference loop runs before the first op and after each op.
    Returns op name -> list of op wall times, op name -> list of the same
    times at reference speed, and the reference times.
    """
    ops = schedule(wl)
    times: dict = {op.name: [] for op in wl.ops}
    scaled: dict = {op.name: [] for op in wl.ops}
    refs = [reference_s()]
    start = time.perf_counter()
    for n, (op, i) in enumerate(itertools.cycle(ops)):
        if n >= len(ops) and time.perf_counter() - start >= seconds:
            break
        spans = runner.run(op, wl.inputs[i])
        refs.append(reference_s())
        wall = sum(end - begin for begin, end in spans)
        times[op.name].append(wall)
        scaled[op.name].append(at_ref_speed(wall, refs[-2], refs[-1]))
    return times, scaled, refs


def peak_rss_kb() -> float:
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def throughput(wl: Workload, times: dict) -> float:
    """Input nodes of one op of each kind over the sum of each kind's median time."""
    per_op = [statistics.median(times[op.name]) for op in wl.ops]
    return wl.inputs[0].nodes * len(wl.ops) / sum(per_op)


def end_to_end(wl: Workload, scaled: dict, setups: list[float]) -> dict:
    """Times at reference speed; ``setups`` holds each set-up's scaled time."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "nodes_per_s": (throughput(wl, scaled), "nodes/s"),
        "peak_rss_mb": (peak_rss_kb() / 1024, "MB"),
    }


def per_layer(wl: Workload, times: dict, refs: list, setups: list, tracer: Tracer,
              traced: list, rss: tuple) -> dict:
    """Layer self times, call counts and input properties from the traced pass.

    ``traced`` holds, per traced op, the op and the (start, end) of its
    calls run untraced and then traced.
    """
    ops = len(traced)
    wall = sum(end - start for _, _, calls in traced for start, end in calls)
    plain = sum(end - start for _, calls, _ in traced for start, end in calls)
    selfs = self_times(tracer.spans)
    layer_s = dict.fromkeys(LAYERS, 0.0)
    counts: dict = {}
    top = 0.0
    for span, own in zip(tracer.spans, selfs):
        name, start, end, parent, _ = span
        layer_s[name.split(".")[0]] += own
        counts[name] = counts.get(name, 0) + 1
        if parent < 0:
            top += end - start
    metrics = {"cli.self_s": ((wall - top) / ops, "s")}
    metrics.update({f"{layer}.self_s": (layer_s[layer] / ops, "s") for layer in LAYERS})

    # Solver time: lexalgebra self time inside the CLI call of each method.
    solver = dict.fromkeys(DENSE_METHODS, 0.0)
    solved = dict.fromkeys(DENSE_METHODS, 0)
    lex = [(span[1], own) for span, own in zip(tracer.spans, selfs)
           if span[0].startswith("lexalgebra.")]
    for op, _, calls in traced:
        for argv, (start, end) in zip(op.calls, calls):
            method = argv[argv.index("--method") + 1] if "--method" in argv else None
            if method in solver:
                solved[method] += 1
                solver[method] += sum(own for t, own in lex if start <= t <= end)
    for method in DENSE_METHODS:
        value = solver[method] / solved[method] if solved[method] else 0.0
        metrics[f"lexalgebra.{method.replace('-', '_')}.s"] = (value, "s")

    for name in COUNTED:
        metrics[f"{name}.per_op"] = (counts.get(name, 0) / ops, "count")
    metrics["graphs.graph_builds.per_op"] = (
        counts.get("graphs.WeightedGraph.__post_init__", 0) / ops, "count")

    inputs = wl.inputs[:TRACED_INPUTS]
    metrics["workload.minima_per_op"] = (
        statistics.mean(len(i.props["minima"]) for i in inputs), "count")
    metrics["workload.zone_nodes_per_op"] = (
        statistics.mean(zone_nodes(i, wl.depth, wl.connectivity) for i in inputs), "count")
    metrics["workload.plateau_node_share"] = (
        statistics.mean(i.props["plateau_node_share"] for i in inputs), "ratio")
    metrics["workload.tied_edge_share"] = (
        statistics.mean(i.props["tied_edge_share"] for i in inputs), "ratio")
    levels = [i.levels for i in inputs if i.levels is not None]
    metrics["waterfall.levels_per_op"] = (statistics.mean(levels) if levels else 0.0, "count")
    metrics["lexalgebra.jordan.mislabeled_nodes_per_input"] = (
        statistics.mean(i.jordan_mislabeled for i in wl.inputs), "count")

    metrics["trace.overhead_ratio"] = (wall / plain - 1, "ratio")
    metrics["wall.nodes_per_s"] = (throughput(wl, times), "nodes/s")
    metrics["wall.setup_s"] = (statistics.median(setups), "s")
    metrics["reference.s"] = (statistics.median(refs), "s")
    for command in COMMANDS:
        samples = [t for op in wl.ops if op.command == command for t in times[op.name]]
        metrics[f"cmd.{command}_s"] = (statistics.median(samples) if samples else 0.0, "s")
    rss_after_setup, peak = rss
    metrics["mem.rss_kb_per_node"] = (
        (peak - rss_after_setup) / max(i.nodes for i in wl.inputs), "KB/node")
    return metrics


def digest(wl: Workload) -> str:
    """sha256 over every distinct output of every (op, input) pair."""
    h = hashlib.sha256()
    for i, inp in enumerate(wl.inputs):
        for op in wl.ops:
            for sha in sorted(inp.digests.get(op.name, ())):
                h.update(f"{i} {op.name} {sha}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(SETTINGS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "morphograph", "cli.py")):
        raise SystemExit(f"no morphograph sources under {SRC}")
    sys.path.insert(0, SRC)
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        wl = make_workload(args.workload, args.seed, work)
        runner = Runner(work)
        setups, scaled_setups = [], []
        ref = reference_s()
        for _ in range(SETUP_REPS):
            gc.collect()
            start = time.perf_counter()
            import_program()
            error = runner.call(wl.ops[0], wl.inputs[0], [])
            if error:
                raise SystemExit(f"warm-up op failed: {error}")
            setups.append(time.perf_counter() - start)
            before, ref = ref, reference_s()
            scaled_setups.append(at_ref_speed(setups[-1], before, ref))
        rss_after_setup = peak_rss_kb()

        times, scaled, refs = measure(wl, runner, args.seconds)
        if args.trace:
            rss = (rss_after_setup, peak_rss_kb())
            tracer = Tracer()
            tracer.install()
            traced = []
            for op_id, (op, i) in enumerate(schedule(wl, TRACED_INPUTS)):
                # Each traced op follows the same op untraced, so that the
                # overhead ratio compares runs made under the same load.
                plain = runner.run(op, wl.inputs[i])
                tracer.op = op_id
                calls = runner.run(op, wl.inputs[i])
                tracer.op = None
                traced.append((op, plain, calls))
            metrics = per_layer(wl, times, refs, setups, tracer, traced, rss)
            metrics["fail_ratio"] = (runner.failed / runner.attempted, "ratio")
            os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
            tracer.write(os.path.join(
                ROOT, ".bench_out", f"spans-{args.workload}-{args.seed}.jsonl"))
        else:
            metrics = end_to_end(wl, scaled, scaled_setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  {runner.attempted} ops checked, "
          f"{runner.failed} failed")
    for error in runner.errors[:10]:
        print(f"  failed: {error}")
    mislabeled = [i for i, inp in enumerate(wl.inputs) if inp.jordan_mislabeled]
    if mislabeled:
        print(f"  known defect: jordan labels differ from closure's on inputs {mislabeled}")
    for name, ts in times.items():
        print(f"  op {name:24s} median {statistics.median(ts):8.4f} s  max {max(ts):8.4f} s"
              f"  n={len(ts)}  scaled median {statistics.median(scaled[name]):8.4f} s")
    print(f"  reference loop median {statistics.median(refs):.4f} s  n={len(refs)}  "
          f"wall throughput {throughput(wl, times):.1f} nodes/s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(f"output_sha256 {digest(wl)}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
