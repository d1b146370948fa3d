import argparse
import contextlib
import gc
import io
import json
import random
import re

import pytest

from morphograph import (
    CarrierMismatch,
    DimensionMismatch,
    MissingWeights,
    UNIT,
    WeightedGraph,
    ZERO,
    basins_with_zones,
    build_hierarchy,
    compose,
    drainage_forest,
    flat_zones,
    flooding_from_nodes,
    is_invariant,
    linear_solve,
    local_prune,
    lowest_edge_filter,
    merge_levels,
    minima_of_flooding,
    prune_to_steepness,
    toll_distances,
)
from morphograph.cli import _waterfall, main
from morphograph.formats import parse_wgr, to_dot, write_pgm, write_wgr
from morphograph.flooding import FloodingReport, validate_flooding
from conftest import random_edge_weighted

FIVE_PATH_WGR = """\
node 0 0
node 1 1
node 2 2
node 3 1
node 4 0
edge 0 1
edge 1 2
edge 2 3
edge 3 4
"""


@pytest.fixture
def five_path_file(tmp_path):
    p = tmp_path / "five.wgr"
    p.write_text(FIVE_PATH_WGR)
    return str(p)


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_watershed_five_path_min_label(five_path_file, capsys):
    code, out, _ = run_cli(
        capsys, "watershed", five_path_file, "--depth", "2", "--tie", "min-label"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["labels"] == [1, 1, 1, 2, 2]
    assert payload["zones"] == [2]
    assert payload["zone_components"] == [[2]]
    assert payload["minima"] == [[0], [4]]


def test_watershed_algos_agree_on_five_path(five_path_file, capsys):
    outs = set()
    for algo in ("dijkstra", "core", "hq"):
        code, out, _ = run_cli(capsys, "watershed", five_path_file, "--algo", algo)
        assert code == 0
        outs.add(json.loads(out)["labels"][0])
        assert json.loads(out)["labels"] == [1, 1, 1, 2, 2]


def test_flood_output_revalidates(five_path_file, capsys):
    code, out, _ = run_cli(capsys, "flood", five_path_file)
    assert code == 0
    g = parse_wgr(out)
    assert validate_flooding(g).ok
    assert sorted(g.dummies) == [5, 6]


def test_flood_edge_weighted_input(tmp_path, capsys):
    p = tmp_path / "edges.wgr"
    p.write_text("node 0\nnode 1\nnode 2\nnode 3\nedge 0 1 1\nedge 1 2 3\nedge 2 3 2\n")
    code, out, _ = run_cli(capsys, "flood", str(p))
    assert code == 0
    g = parse_wgr(out)
    assert validate_flooding(g).ok
    assert g.node_weights == (1, 1, 2, 2)


def test_prune_emits_flooding_graph(five_path_file, capsys):
    code, out, _ = run_cli(capsys, "prune", five_path_file, "--steepness", "2")
    assert code == 0
    g = parse_wgr(out)
    assert validate_flooding(g).ok


def test_mst_distinct_weights(tmp_path, capsys):
    text = "node 0\nnode 1\nnode 2\nedge 0 1 4\nedge 1 2 1\nedge 0 2 2\n"
    p = tmp_path / "tri.wgr"
    p.write_text(text)
    code, out, _ = run_cli(capsys, "mst", str(p))
    assert code == 0
    payload = json.loads(out)
    assert payload["weight"] == 3
    assert payload["edges"] == [[0, 2, 2], [1, 2, 1]]


def test_only_the_dummy_token_flags_a_dummy(tmp_path, capsys):
    # "# dummyX 1" is a plain comment: node 1 keeps its label
    p = tmp_path / "tri.wgr"
    for comment, labels in (("# dummyX 1", 3), ("# dummy-node 1", 3), ("# dummy 1", 2)):
        p.write_text(f"node 0\nnode 1\nnode 2\nedge 0 1 4\nedge 1 2 1\n{comment}\n")
        code, out, _ = run_cli(capsys, "watershed", str(p))
        assert code == 0
        assert len(json.loads(out)["labels"]) == labels, comment


def test_waterfall_profile(tmp_path, capsys):
    lines = [f"node {i} {w}" for i, w in enumerate((1, 5, 2, 7, 1, 6, 3))]
    lines += [f"edge {i} {i+1}" for i in range(6)]
    p = tmp_path / "profile.wgr"
    p.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "waterfall", str(p))
    assert code == 0
    payload = json.loads(out)
    assert [lvl["regions"] for lvl in payload["levels"]] == [4, 2, 1]
    assert len(payload["levels"][0]["labels"]) == 7


def _dict_payload(h):
    """The waterfall JSON payload as one dict per record, as ``waterfall``
    built it before it formatted the edge records itself."""
    real = [b for b in range(h.base.num_nodes) if b not in h.base.dummies]
    return {
        "levels": [
            {
                "regions": lvl.region_count,
                "labels": [lvl.partition.values[b] for b in real],
            }
            for lvl in h.levels
        ],
        "edge_levels": [
            {"edge": list(h.base.edges[eid]), "level": lvl}
            for eid, lvl in enumerate(merge_levels(h))
        ],
    }


def test_waterfall_and_mst_json_are_the_bytes_of_json_dumps(rng, tmp_path, capsys):
    graphs = [random_edge_weighted(rng, 12, connected=True) for _ in range(20)]
    for _ in range(20):  # node weights on connected edges: isolated minima get dummies
        g = random_edge_weighted(rng, 12, connected=True)
        graphs.append(WeightedGraph(g.num_nodes, g.edges,
                                    tuple(rng.randint(0, 6) for _ in range(g.num_nodes))))
    with_dummies = 0
    for i, g in enumerate(graphs):
        path = tmp_path / f"g{i}.wgr"
        path.write_text(write_wgr(g))
        for k in (1, 2, 3, 4):
            for tie in ("min-label", "seed:7"):
                h = build_hierarchy(parse_wgr(path.read_text()), k, tie)
                with_dummies += bool(h.base.dummies)
                code, out, _ = run_cli(capsys, "waterfall", str(path),
                                       "--depth", str(k), "--tie", tie)
                assert code == 0
                assert out == json.dumps(_dict_payload(h), sort_keys=True) + "\n"
                code, out, _ = run_cli(capsys, "mst", str(path), "--depth", str(k), "--tie", tie)
                assert code == 0 and out == json.dumps(json.loads(out), sort_keys=True) + "\n"
    assert with_dummies >= 40
    # the one graph whose payload has no edge records: a lone node with no edges
    lone = WeightedGraph(1, (), None, ())
    for k in (1, 2, 3, 4):
        for tie in ("min-label", "seed:7"):
            args = argparse.Namespace(depth=k, tie=tie, fmt="json")
            want = json.dumps(_dict_payload(build_hierarchy(lone, k, tie)), sort_keys=True)
            assert "".join(_waterfall(args, lone, None)) == want + "\n"
            assert '"edge_levels": []' in want


def test_dist_methods_agree(five_path_file, capsys):
    outs = []
    for method in ("closure", "jacobi", "gauss-seidel", "jordan", "gondran",
                   "dijkstra", "core"):
        code, out, _ = run_cli(
            capsys, "dist", five_path_file, "--method", method, "--depth", "2"
        )
        assert code == 0
        outs.append(json.loads(out)["distances"])
    assert all(o == outs[0] for o in outs)
    assert outs[0][2] == [2, 1]


def test_identical_configs_byte_identical(five_path_file, capsys):
    _, out1, _ = run_cli(capsys, "watershed", five_path_file, "--tie", "seed:5")
    _, out2, _ = run_cli(capsys, "watershed", five_path_file, "--tie", "seed:5")
    assert out1 == out2


def test_pgm_input_and_label_output(tmp_path, capsys):
    img = tmp_path / "img.pgm"
    img.write_bytes(write_pgm(3, 1, [0, 1, 0], 9))
    outfile = tmp_path / "labels.pgm"
    code, _, _ = run_cli(
        capsys, "watershed", str(img), "--format", "pgm-labels",
        "--output", str(outfile),
    )
    assert code == 0
    from morphograph.formats import parse_pgm

    _, _, _, pixels = parse_pgm(outfile.read_bytes())
    assert pixels[0] != pixels[2]  # two basins
    legend = json.loads((tmp_path / "labels.pgm.legend.json").read_text())
    assert set(legend["gray"]) >= {"1", "2"}


def test_exit_code_on_missing_file(capsys):
    code, _, err = run_cli(capsys, "watershed", "/does/not/exist.wgr")
    assert code == 2
    assert json.loads(err)["error"] == "MalformedInput"


def test_exit_code_on_bad_graph(tmp_path, capsys):
    p = tmp_path / "bad.wgr"
    p.write_text("node 0\nnode 2\n")
    code, _, err = run_cli(capsys, "watershed", str(p))
    assert code == 2
    assert "detail" in json.loads(err)


def test_exit_code_on_invalid_flooding(tmp_path, capsys):
    # claims both carriers but the identities fail -> invariant violation
    p = tmp_path / "notflooding.wgr"
    p.write_text("node 0 1\nnode 1 1\nedge 0 1 5\n")
    code, _, err = run_cli(capsys, "dist", str(p))
    assert code == 3
    assert json.loads(err)["error"] == "InvalidFloodingGraph"


def test_bad_flag_values(five_path_file, capsys):
    code, _, _ = run_cli(capsys, "watershed", five_path_file, "--depth", "0")
    assert code == 2
    code, _, _ = run_cli(capsys, "watershed", five_path_file, "--tie", "bogus")
    assert code == 2


def test_unweighted_graph_rejected(tmp_path, capsys):
    p = tmp_path / "plain.wgr"
    p.write_text("node 0\nnode 1\nedge 0 1\n")
    code, _, err = run_cli(capsys, "watershed", str(p))
    assert code == 2
    assert json.loads(err)["error"] == "MissingWeights"


def test_waterfall_on_image_input(tmp_path, capsys):
    img = tmp_path / "two.pgm"
    img.write_bytes(write_pgm(5, 1, [0, 3, 1, 4, 0], 9))
    code, out, _ = run_cli(capsys, "waterfall", str(img))
    assert code == 0
    payload = json.loads(out)
    assert payload["levels"][-1]["regions"] == 1
    assert len(payload["levels"][0]["labels"]) == 5


def test_dot_format_watershed(five_path_file, capsys):
    code, out, _ = run_cli(capsys, "watershed", five_path_file, "--format", "dot")
    assert code == 0
    assert out.startswith("graph {") and "--" in out


def test_bad_tie_and_pixel_values_are_input_errors(five_path_file, tmp_path, capsys):
    code, _, err = run_cli(capsys, "watershed", five_path_file, "--tie", "seed:x")
    assert code == 2
    assert json.loads(err)["error"] == "MalformedInput"
    img = tmp_path / "text.pgm"
    img.write_bytes(b"P2 2 1 9\n1 x\n")
    code, _, err = run_cli(capsys, "watershed", str(img))
    assert code == 2
    assert json.loads(err)["error"] == "MalformedImage"


def test_value_error_from_a_bug_is_not_an_input_error(five_path_file, monkeypatch):
    from morphograph import geodesics

    def broken(*args, **kwargs):
        raise ValueError("bug")

    monkeypatch.setattr(geodesics, "basin_labels", broken)
    with pytest.raises(ValueError, match="bug"):
        main(["watershed", five_path_file, "--algo", "core"])


@pytest.mark.parametrize("exit_", ["0", "2-flag", "2-file", "3", "raise"])
@pytest.mark.parametrize("enabled", [True, False])
def test_main_pauses_the_collector_and_gives_it_back(
        exit_, enabled, five_path_file, tmp_path, monkeypatch, capsys):
    from morphograph import geodesics

    def broken(*args, **kwargs):
        raise ValueError("bug")

    monkeypatch.setattr(geodesics, "basin_labels", broken)
    img = tmp_path / "grid.pgm"
    img.write_bytes(write_pgm(24, 24, [(x * y) % 7 for y in range(24) for x in range(24)], 9))
    two = tmp_path / "two.wgr"
    two.write_text("node 0\nnode 1\nnode 2\nnode 3\nedge 0 1 2\nedge 2 3 5\n")
    argv = {
        "0": ["waterfall", str(img)],
        "2-flag": ["watershed", five_path_file, "--depth", "0"],
        "2-file": ["watershed", str(tmp_path / "missing.wgr")],
        "3": ["waterfall", str(two)],  # DisconnectedInput
        "raise": ["watershed", five_path_file],
    }[exit_]
    passes = []

    def count(phase, info):
        passes.append(phase)

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    gc.callbacks.append(count)
    try:
        if exit_ == "raise":
            with pytest.raises(ValueError, match="bug"):
                main(argv)
        else:
            code = main(argv)
            during = len(passes)  # allocates no container, so starts no pass
            assert code == int(exit_[0])
            assert during == 0  # no collector pass ran during the call
        assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_watershed_validates_and_finds_minima_once(five_path_file, tmp_path, monkeypatch,
                                                   capsys):
    from morphograph import flooding, graphs, steepness, watershed

    calls = {"validate": 0, "minima": 0, "pairs": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    walk = graphs._zone_walk

    def node_walk(g, mode):
        # a node zone walk that misses the memo; edge walks are not counted
        calls["minima"] += mode == "nodes"
        return walk(g, mode)

    # flood's own output of the node-weighted file: both weights, dummies
    code, flooded, _ = run_cli(capsys, "flood", five_path_file)
    assert code == 0 and "# dummy" in flooded
    both = tmp_path / "both.wgr"
    both.write_text(flooded)
    monkeypatch.setattr(flooding, "validate_flooding", counted("validate", flooding.validate_flooding))
    monkeypatch.setattr(graphs, "_zone_walk", node_walk)
    # the pairs (and with them the minima mask) are derived by _flooding_pairs
    # alone; each module that binds it is counted
    pairs = counted("pairs", flooding._flooding_pairs)
    for module in (flooding, steepness, watershed):
        monkeypatch.setattr(module, "_flooding_pairs", pairs)
    # the node-weighted file is flooded by a constructor, which certifies
    # its graph: no validation; a .wgr that comes with both weights is
    # validated once.  Either way one node zone walk: the two single-node
    # minima of the input get twins, and the flooding graph inherits the
    # walk, so the minima labeling and the plateaus walk nothing more
    for path, validations in ((five_path_file, 0), (str(both), 1)):
        for fmt in ("json", "dot"):
            calls.update(validate=0, minima=0, pairs=0)
            code, _, _ = run_cli(capsys, "watershed", path, "--format", fmt)
            assert code == 0
            assert calls == {"validate": validations, "minima": 1, "pairs": 1}
        # the labels and the zones walk the same memoised minimal-pair rows;
        # at depth 3 the depth-2 ranks need the pairs too, and hq, which
        # labels at depth 2, takes its zones' depth-3 rows from the same pairs
        for algo in ("core", "dijkstra", "hq"):
            calls.update(validate=0, minima=0, pairs=0)
            code, out, _ = run_cli(capsys, "watershed", path, "--depth", "3", "--algo", algo)
            assert code == 0 and "zones" in json.loads(out)
            assert calls == {"validate": validations, "minima": 1, "pairs": 1}
        # both sparse distance methods read the memoised rows of one derivation
        for method in ("core", "dijkstra"):
            calls.update(validate=0, minima=0, pairs=0)
            code, _, _ = run_cli(capsys, "dist", path, "--method", method)
            assert code == 0
            assert calls == {"validate": validations, "minima": 1, "pairs": 1}
    # every waterfall level floods its contracted graph with a constructor,
    # and its pruning and drainage forest share one derivation of the pairs
    edges = tmp_path / "edges.wgr"
    # a ruler profile on a path: its passes rise 5, 6, 5, 7, 5, 6, 5, 8, ...
    weights = [1 if i % 2 else 3 + (i & -i).bit_length() for i in range(1, 28)]
    edges.write_text("".join(f"node {i}\n" for i in range(28))
                     + "".join(f"edge {i} {i + 1} {w}\n" for i, w in enumerate(weights)))
    calls.update(validate=0, minima=0, pairs=0)
    code, out, _ = run_cli(capsys, "waterfall", str(edges))
    assert [level["regions"] for level in json.loads(out)["levels"]] == [14, 7, 3, 1]
    assert code == 0 and calls["validate"] == 0 and calls["pairs"] == 4
    calls.update(validate=0, minima=0, pairs=0)
    code, out, _ = run_cli(capsys, "mst", str(edges))
    assert code == 0 and len(json.loads(out)["edges"]) == 27
    assert calls["validate"] == 0 and calls["pairs"] == 4


def test_every_waterfall_level_floods_by_one_rule(tmp_path, monkeypatch, capsys):
    # each level, the first included, takes its flooding graph from
    # _from_edges; a node-weighted input is flooded once by its constructor
    # and a two-weight input validated once, before the first level
    from morphograph import flooding, waterfall

    img = tmp_path / "relief.pgm"
    rng = random.Random(5)
    img.write_bytes(write_pgm(12, 12, [rng.randrange(10) for _ in range(144)], 9))
    code, flooded, _ = run_cli(capsys, "flood", str(img))
    assert code == 0
    both = tmp_path / "both.wgr"
    both.write_text(flooded)
    edges = tmp_path / "edges.wgr"
    weights = [1 if i % 2 else 3 + (i & -i).bit_length() for i in range(1, 28)]
    edges.write_text("".join(f"node {i}\n" for i in range(28))
                     + "".join(f"edge {i} {i + 1} {w}\n" for i, w in enumerate(weights)))
    calls = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(waterfall, "_from_edges")
    counted(flooding, "flooding_from_nodes")
    counted(flooding, "validate_flooding")
    for path, nodes, validations in ((img, 1, 0), (edges, 0, 0), (both, 0, 1)):
        for tie in ("min-label", "seed:3"):
            calls.update(_from_edges=0, flooding_from_nodes=0, validate_flooding=0)
            code, out, _ = run_cli(capsys, "waterfall", str(path), "--tie", tie)
            levels = len(json.loads(out)["levels"])
            assert code == 0 and levels >= 3, path
            assert calls == {"_from_edges": levels, "flooding_from_nodes": nodes,
                             "validate_flooding": validations}, path


def test_pgm_watershed_walks_the_pixel_zones_once(tmp_path, monkeypatch, capsys):
    from morphograph import graphs

    walks = []
    walk = graphs._zone_walk
    monkeypatch.setattr(graphs, "_zone_walk", lambda g, mode: walks.append(mode) or walk(g, mode))
    img = tmp_path / "pits.pgm"
    # a single-pixel minimum at (1, 1), a two-pixel one on the right, a plateau
    img.write_bytes(write_pgm(5, 3, [5, 5, 5, 4, 4, 5, 0, 5, 1, 1, 5, 5, 5, 4, 4], 9))
    for algo in ("core", "dijkstra", "hq"):
        walks.clear()
        code, out, _ = run_cli(capsys, "watershed", str(img), "--algo", algo)
        assert code == 0 and len(json.loads(out)["minima"]) == 2
        assert walks == ["nodes"]


def test_pgm_input_is_parsed_once(tmp_path, monkeypatch, capsys):
    from morphograph import formats

    calls = []
    parse = formats.parse_pgm
    monkeypatch.setattr(formats, "parse_pgm", lambda data: calls.append(1) or parse(data))
    img = tmp_path / "line.pgm"
    img.write_bytes(b"P2 3 1 9\n0 1 0\n")
    code, _, _ = run_cli(capsys, "flood", str(img))
    assert code == 0
    assert len(calls) == 1


def test_dense_methods_refuse_oversized_input_quickly(tmp_path, capsys):
    import time

    from morphograph.lexalgebra import MAX_DENSE_NODES

    width = MAX_DENSE_NODES + 1
    img = tmp_path / "wide.pgm"
    img.write_bytes(write_pgm(width, 1, [(7 * i) % 10 for i in range(width)], 9))
    for method in ("closure", "jacobi", "gauss-seidel", "jordan", "gondran"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "dist", str(img), "--method", method)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "MalformedInput"


def test_flag_errors_are_one_json_line(five_path_file, capsys):
    for args in (
        [],
        ["flood", five_path_file, "--depth", "x"],
        ["flood", five_path_file, "--depth", "0"],
        ["prune", five_path_file, "--steepness", "0"],
        ["watershed", five_path_file, "--connectivity", "5"],
        ["watershed", five_path_file, "--algo", "nope"],
        ["waterfall", five_path_file, "--tie", "seed:x"],
        ["mst", five_path_file, "--format", "dot"],
        ["waterfall", five_path_file, "--format", "pgm-labels"],
    ):
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == "", args
        assert len(err.splitlines()) == 1, args
        assert json.loads(err)["error"] == "MalformedInput", args
    code, out, _ = run_cli(capsys, "flood", five_path_file, "--depth", "3", "--connectivity", "8")
    assert code == 0 and out


def test_unwritable_output_is_one_json_line(five_path_file, tmp_path, capsys):
    img = tmp_path / "img.pgm"
    img.write_bytes(write_pgm(3, 1, [0, 1, 0], 9))
    missing = tmp_path / "no" / "such" / "dir" / "out"
    for args in (
        ["flood", five_path_file],
        ["watershed", str(img), "--format", "pgm-labels"],
    ):
        code, out, err = run_cli(capsys, *args, "--output", str(missing))
        assert code == 2 and out == "", args
        assert len(err.splitlines()) == 1, args
        payload = json.loads(err)
        assert payload["error"] == "MalformedInput", args
        assert payload["detail"].startswith(f"cannot write {missing}"), args
    assert not (tmp_path / "no").exists()


# -- one exit-code contract over a pathological corpus -----------------------

# name -> (file name, bytes, extra flags, errors): errors is the error type
# of every command, or a map from each failing command to its error type
CORPUS = {
    **{
        f"{name}-c{conn}": (f"{name}.pgm", data, ["--connectivity", str(conn)], {})
        for name, data in (
            ("flat5x5", b"P2 5 5 9\n" + b"3 " * 25 + b"\n"),
            ("row1x7", b"P2 7 1 9\n3 1 4 1 5 9 2\n"),
            ("single1x1", b"P2 1 1 9\n4\n"),
            ("dummies", b"P2 4 1 9\n1 5 1 5\n"),  # two isolated minima
        )
        for conn in (4, 8)
    },
    # gray levels past the PGM format's 65535, up to TOP itself
    "huge-maxval": ("huge.pgm", b"P2 2 1 99999999999999999999\n9223372036854775807 0\n", [],
                    "MalformedImage"),
    "maxval-65536": ("wide.pgm", b"P2 2 1 65536\n65536 0\n", [], "MalformedImage"),
    "two-components": ("two.wgr", b"node 0\nnode 1\nnode 2\nnode 3\nedge 0 1 2\nedge 2 3 5\n", [], {
        "waterfall": "DisconnectedInput",
        "waterfall --format dot": "DisconnectedInput",
        "mst": "DisconnectedInput",
    }),
    "not-flooding": ("bad.wgr", b"node 0 1\nnode 1 1\nedge 0 1 5\n", [], "InvalidFloodingGraph"),
    "unweighted": ("plain.wgr", b"node 0\nnode 1\nedge 0 1\n", [], "MissingWeights"),
    "comment-only": ("comment.wgr", b"# no graph here\n", [], "MalformedInput"),
    # a dummy id past int()'s digit limit: a bad line, not a ValueError traceback
    "huge-dummy": ("dummy.wgr", b"node 0 1\nnode 1 2\nedge 0 1 2\n# dummy " + b"9" * 5000 + b"\n",
                   [], "MalformedInput"),
    "empty": ("empty.wgr", b"", [], "MalformedInput"),
}

COMMANDS = (
    "flood", "prune --steepness 2", "watershed", "watershed --format dot",
    "watershed --format pgm-labels", "waterfall", "waterfall --format dot", "mst",
    "dist", "dist --method closure",
)

EXIT_CODES = {
    "MalformedInput": 2, "MalformedImage": 2, "MissingWeights": 2,
    "InvalidFloodingGraph": 3, "DisconnectedInput": 3,
}


def _expected(name, command):
    fname, _, _, errors = CORPUS[name]
    if isinstance(errors, str):  # the input fails every command
        return errors
    if command == "watershed --format pgm-labels" and not fname.endswith(".pgm"):
        return "MalformedInput"
    return errors.get(command)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_exit_code_contract(name, command, tmp_path, capsysbinary):
    fname, data, flags, _ = CORPUS[name]
    path = tmp_path / fname
    path.write_bytes(data)
    want = _expected(name, command)
    code = main([*command.split()[:1], str(path), *command.split()[1:], *flags])
    out, err = capsysbinary.readouterr()
    if want is None:
        assert code == 0 and out and not err
        return
    assert code == EXIT_CODES[want] and out == b""
    lines = err.decode().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == want


def test_every_small_shape_gets_its_exit_code(tmp_path, capsysbinary):
    # one graph per isomorphism class on up to 4 nodes, written as .wgr with
    # weights on its nodes and, if it has an edge, on its edges: mst and
    # waterfall exit 0 on a connected shape and 3 with one DisconnectedInput
    # line on a disconnected one, a zero depth is a MalformedInput and the
    # shape without weights is a MissingWeights for every command
    from morphograph.graphs import connected_components
    from test_geodesics import _one_graph_per_shape

    def run(text, argv):
        path = tmp_path / "shape.wgr"
        path.write_text(text)
        code = main([argv[0], str(path), *argv[1:]])
        out, err = capsysbinary.readouterr()
        return code, out, err.decode().splitlines()

    def refused(result, code, error):
        got, out, lines = result
        return (got, out, len(lines)) == (code, b"", 1) and json.loads(lines[0])["error"] == error

    shapes = list(_one_graph_per_shape(4))
    assert len(shapes) == 18
    for g in shapes:
        edges = [f"edge {u} {v}" for u, v in g.edges]
        weighted = ["".join(f"node {i} {i % 3}\n" for i in range(g.num_nodes))
                    + "".join(f"{e}\n" for e in edges)]
        if edges:
            weighted.append("".join(f"node {i}\n" for i in range(g.num_nodes))
                            + "".join(f"{e} {eid % 3}\n" for eid, e in enumerate(edges)))
        connected = connected_components(g).num_labels == 1
        for text in weighted:
            for command in ("mst", "waterfall"):
                result = run(text, [command])
                if connected:
                    assert result[0] == 0 and result[1] and not result[2], (g, command)
                else:
                    assert refused(result, 3, "DisconnectedInput"), (g, command)
            assert refused(run(text, ["dist", "--depth", "0"]), 2, "MalformedInput"), g
        plain = "".join(f"node {i}\n" for i in range(g.num_nodes)) + "".join(f"{e}\n" for e in edges)
        for command in COMMANDS:
            assert refused(run(plain, command.split()), 2, "MissingWeights"), (g, command)


def test_empty_graph_has_its_own_message(tmp_path, capsys):
    p = tmp_path / "empty.wgr"
    p.write_text("")
    code, out, err = run_cli(capsys, "flood", str(p))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "MalformedInput", "detail": "input graph has no nodes"}


def test_flood_reads_back_the_top_it_writes(tmp_path, capsys):
    # node 2 touches no edge: its flooding weight is TOP, the empty infimum
    p = tmp_path / "isolated.wgr"
    p.write_text("node 0\nnode 1\nnode 2\nedge 0 1 4\n")
    code, out, _ = run_cli(capsys, "flood", str(p))
    assert code == 0 and "node 2 9223372036854775807" in out
    flooded = tmp_path / "flooded.wgr"
    flooded.write_text(out)
    code, again, _ = run_cli(capsys, "flood", str(flooded))
    assert code == 0 and again == out
    code, out, err = run_cli(capsys, "watershed", str(flooded))
    assert code == 0 and not err
    assert json.loads(out)["minima"] == [[0, 1], [2]]


@pytest.mark.parametrize("algo", ("core", "dijkstra", "hq"))
def test_pgm_labels_on_a_wgr_is_refused_before_the_watershed(
        algo, five_path_file, capsys, monkeypatch):
    from morphograph import geodesics

    def refuse(*args, **kwargs):
        raise AssertionError("the watershed ran before the refusal")

    monkeypatch.setattr(geodesics, "basin_labels", refuse)
    code, out, err = run_cli(
        capsys, "watershed", five_path_file, "--format", "pgm-labels", "--algo", algo)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "MalformedInput"


@pytest.mark.parametrize("command, flag", [
    ("prune", "--steepness"), ("watershed", "--depth"), ("waterfall", "--depth"), ("mst", "--depth"),
])
def test_a_huge_depth_stops_at_the_fixed_point(command, flag, tmp_path, capsys):
    # no track is longer than the graph has nodes, so depth n + 1 already
    # gives the fixed point, and the passes stop there
    path = tmp_path / "four.pgm"
    path.write_bytes(b"P2 4 1 9\n1 5 1 5\n")
    code, out, _ = run_cli(capsys, "flood", str(path))
    assert code == 0
    k = parse_wgr(out).num_nodes + 1
    code, want, _ = run_cli(capsys, command, str(path), flag, str(k))
    assert code == 0
    assert run_cli(capsys, command, str(path), flag, str(10**12)) == (0, want, "")


@pytest.mark.parametrize("argv", [
    ("watershed",), ("watershed", "--algo", "dijkstra"), ("mst",), ("waterfall",),
])
def test_a_huge_depth_on_a_ramp_gives_the_fixed_point(argv, tmp_path, capsys):
    # each pair of an x + y ramp descends one level, so its tracks run
    # across the whole image, yet the track ranks repeat within a few
    # passes; no track is longer than the graph has nodes
    side = 16
    path = tmp_path / "ramp.pgm"
    path.write_bytes(b"P5 %d %d 65535\n" % (side, side) + b"".join(
        (x + y).to_bytes(2, "big") for y in range(side) for x in range(side)))
    code, out, _ = run_cli(capsys, "flood", str(path))
    assert code == 0
    k = parse_wgr(out).num_nodes + 1
    code, want, _ = run_cli(capsys, argv[0], str(path), *argv[1:], "--depth", str(k))
    assert code == 0 and want
    assert run_cli(capsys, argv[0], str(path), *argv[1:], "--depth", str(10**6)) == (0, want, "")


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def test_the_parser_is_built_once_per_process():
    from morphograph.cli import build_parser

    assert build_parser() is build_parser()


@pytest.fixture
def tied_image(tmp_path):
    # a 6x6 image of three gray levels, whose basins a seeded tie splits
    # otherwise than min-label
    import random

    rng = random.Random(0)
    path = tmp_path / "tied.pgm"
    path.write_bytes(write_pgm(6, 6, [rng.randrange(3) for _ in range(36)], 9))
    return str(path)


@pytest.mark.parametrize("sequence", ["tie", "format", "refused", "output"])
def test_calls_in_a_row_print_what_each_prints_alone(sequence, tied_image, capsys):
    # the calls share one parser: a default, a choice or a half-parsed
    # refusal left on it by one call would show in the next call's bytes
    from morphograph.cli import build_parser

    calls = {
        "tie": [("watershed", tied_image, "--tie", "seed:7"), ("watershed", tied_image)],
        "format": [("watershed", tied_image, "--format", "dot"), ("watershed", tied_image)],
        "refused": [("waterfall", tied_image, "--depth", "3"),
                    ("watershed", tied_image, "--depth", "0", "--tie", "seed:7"),
                    ("watershed", tied_image)],
        # an --output call between two stdout calls: the file holds what the
        # call prints to stdout alone, and the stdout calls keep their bytes
        "output": [("watershed", tied_image, "--tie", "seed:7"),
                   ("watershed", tied_image, "--format", "dot", "--output", tied_image + ".dot"),
                   ("watershed", tied_image)],
    }[sequence]
    alone = []
    for argv in calls:
        build_parser.cache_clear()
        alone.append(run_cli(capsys, *argv))
    assert len({out for _, out, _ in alone}) == len(calls)  # each call prints its own bytes
    build_parser.cache_clear()
    parser = build_parser()
    assert [run_cli(capsys, *argv) for argv in calls] == alone
    assert build_parser() is parser
    if sequence == "refused":
        assert alone[1][0] == 2 and json.loads(alone[1][2])["error"] == "MalformedInput"
    if sequence == "output":
        with open(tied_image + ".dot") as fh:
            assert fh.read() == run_cli(capsys, "watershed", tied_image, "--format", "dot")[1]


def test_a_library_function_patched_after_the_parser_is_built_runs(
        tied_image, monkeypatch, capsys):
    from morphograph import lexalgebra
    from morphograph.cli import build_parser

    build_parser()
    code, want, _ = run_cli(capsys, "dist", tied_image, "--method", "gondran")
    calls = []
    solve = lexalgebra.distances_to_minima

    def counted(*args):
        calls.append(args[1:])
        return solve(*args)

    monkeypatch.setattr(lexalgebra, "distances_to_minima", counted)
    assert run_cli(capsys, "dist", tied_image, "--method", "gondran") == (code, want, "")
    assert code == 0 and calls == [(2, "gondran")]


# -- streamed output ----------------------------------------------------------


# every subcommand with every format it takes; pgm-labels needs a PGM input
STREAMED = (
    ["flood"], ["prune", "--steepness", "2"], ["watershed"], ["watershed", "--format", "dot"],
    ["watershed", "--format", "pgm-labels"], ["waterfall"], ["waterfall", "--format", "dot"],
    ["mst"], ["dist"], ["dist", "--method", "closure"],
)


def test_stdout_and_output_get_the_same_bytes(tied_image, five_path_file, tmp_path,
                                              capsysbinary):
    def stdout(argv):
        code = main(argv)
        out, err = capsysbinary.readouterr()
        assert (code, err) == (0, b""), argv
        return out

    for path in (tied_image, five_path_file):
        for command in STREAMED:
            if "pgm-labels" in command and not path.endswith(".pgm"):
                continue
            argv = [command[0], path, *command[1:]]
            printed = stdout(argv)
            assert printed and stdout(argv) == printed, argv  # two calls in a row
            target = tmp_path / "out"
            assert stdout([*argv, "--output", str(target)]) == b"", argv
            assert target.read_bytes() == printed, argv
            target.unlink()


def _disconnected(tmp_path):
    path = tmp_path / "two.wgr"
    path.write_text("node 0\nnode 1\nnode 2\nnode 3\nedge 0 1 2\nedge 2 3 5\n")
    return str(path)


@pytest.mark.parametrize("command", ["mst", "waterfall"])
def test_a_refused_run_leaves_its_output_file_as_it_was(command, tmp_path, capsys):
    target = tmp_path / "out.json"
    target.write_bytes(b"kept\n")
    code, out, err = run_cli(capsys, command, _disconnected(tmp_path), "--output", str(target))
    assert (code, out) == (3, "") and json.loads(err)["error"] == "DisconnectedInput"
    assert target.read_bytes() == b"kept\n"


def test_a_pgm_label_map_refused_on_a_wgr_writes_no_file(five_path_file, tmp_path, capsys):
    target = tmp_path / "labels.pgm"
    code, out, _ = run_cli(capsys, "watershed", five_path_file, "--format", "pgm-labels",
                           "--output", str(target))
    assert (code, out) == (2, "")
    assert not target.exists() and not (tmp_path / "labels.pgm.legend.json").exists()


@pytest.mark.parametrize("module, name, command", [
    ("waterfall", "merge_levels", ["waterfall"]),
    ("watershed", "basins_with_zones", ["watershed"]),
])
def test_a_failure_in_the_last_step_before_export_prints_nothing(
        module, name, command, tied_image, tmp_path, monkeypatch, capsys):
    import importlib

    from morphograph.errors import MorphographError

    def fail(*args, **kwargs):
        raise MorphographError("injected")

    monkeypatch.setattr(importlib.import_module(f"morphograph.{module}"), name, fail)
    target = tmp_path / "out.json"
    for extra in ([], ["--output", str(target)]):
        code, out, err = run_cli(capsys, command[0], tied_image, *command[1:], *extra)
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": "MorphographError", "detail": "injected"}
    assert not target.exists()


@pytest.mark.parametrize("command, side, taken", [
    ("flood", 64, 100), ("waterfall", 64, 100), ("watershed", 8, 0),
])
def test_a_reader_that_closes_early_ends_the_run_quietly(command, side, taken, tmp_path):
    # a 64x64 relief prints far more than a pipe holds, so the writes after
    # the reader has gone meet a broken pipe; an 8x8 one fits in stdout's
    # buffer, so a reader gone before the first byte shows only at its flush.
    # stdout is block-buffered, as it is under a shell
    import os
    import subprocess
    import sys

    rng = random.Random(2)
    path = tmp_path / "relief.pgm"
    path.write_bytes(write_pgm(side, side, [rng.randrange(40) for _ in range(side * side)], 255))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "morphograph.cli", command, str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(env, PYTHONPATH=src))
    head = proc.stdout.read(taken)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0 and err == b""
    assert len(head) == taken


# -- every refusal branch, with its error type and message --------------------


_PATH3 = WeightedGraph(3, ((0, 1), (1, 2)), (1, 0, 1), (1, 1))


def _cli_error(tmp_path, data):
    """The exit code and the error name of ``watershed`` on a file of ``data``."""
    path = tmp_path / "input.wgr"
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["watershed", str(path)])
    return code, json.loads(err.getvalue())["error"]


# name -> (call on a temporary directory, (error type, message) or result)
REFUSALS = {
    "compose-unknown-carrier": (lambda tmp: compose(_PATH3, [], (0, 0, 0), "arcs"),
                                (CarrierMismatch, "unknown carrier 'arcs'")),
    "is_invariant-unknown-operator": (lambda tmp: is_invariant(_PATH3, (1, 1), "node_opening"),
                                      (ValueError, "unknown operator 'node_opening'")),
    "cli-neither-pgm-nor-utf8": (lambda tmp: _cli_error(tmp, b"node 0 \xff\xfe\n"),
                                 (2, "MalformedInput")),
    "validate_flooding-one-carrier": (
        lambda tmp: validate_flooding(WeightedGraph(3, _PATH3.edges, (1, 0, 1))),
        FloodingReport(False, (), ())),
    "toll_distances-unknown-mode": (lambda tmp: toll_distances(_PATH3, [1], "geodesic"),
                                    (ValueError, "unknown mode 'geodesic'")),
    "edge_weights-length": (lambda tmp: WeightedGraph(3, _PATH3.edges, None, (1,)),
                            (ValueError, "edge_weights length != num edges")),
    "flat_zones-unknown-mode": (lambda tmp: flat_zones(_PATH3, "arcs"),
                                (ValueError, "unknown mode 'arcs'")),
    "lowest_edge_filter-unknown-mode": (lambda tmp: lowest_edge_filter(_PATH3, "arcs"),
                                        (ValueError, "unknown mode 'arcs'")),
    "linear_solve-unknown-method": (lambda tmp: linear_solve([[ZERO]], [[UNIT]], 1, "cholesky"),
                                    (ValueError, "unknown method 'cholesky'")),
    "linear_solve-no-column": (lambda tmp: linear_solve([[ZERO]], [[]], 1),
                               (DimensionMismatch, "B must have at least one column")),
    "local_prune-negative": (lambda tmp: local_prune(flooding_from_nodes(_PATH3), -1),
                             (ValueError, "iteration count must be >= 0")),
    "to_dot-unweighted-edges": (lambda tmp: to_dot(WeightedGraph(2, ((0, 1),))),
                                "graph {\n  0;\n  1;\n  0 -- 1;\n}\n"),
}
# a graph that carries one weight is refused for the carrier it lacks,
# before it is validated, by every entry that reads its minima
REFUSALS.update({
    f"{name}-{carrier}-only": (lambda tmp, read=read, g=g: read(g),
                               (MissingWeights, f"graph has no {missing} weights"))
    for name, read in (("minima_of_flooding", minima_of_flooding),
                       ("drainage_forest", drainage_forest),
                       ("basins_with_zones", lambda g: basins_with_zones(g, 2)),
                       ("prune_to_steepness", lambda g: prune_to_steepness(g, 2)),
                       ("local_prune", lambda g: local_prune(g, 1)))
    for carrier, g, missing in (("nodes", WeightedGraph(3, _PATH3.edges, (1, 0, 1)), "edge"),
                                ("edges", WeightedGraph(3, _PATH3.edges, None, (1, 1)), "node"))
})


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_every_refusal_branch(name, tmp_path):
    call, outcome = REFUSALS[name]
    if isinstance(outcome, tuple) and isinstance(outcome[0], type):
        with pytest.raises(outcome[0], match=f"^{re.escape(outcome[1])}$"):
            call(tmp_path)
    else:
        assert call(tmp_path) == outcome
