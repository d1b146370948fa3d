import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphograph import MalformedImage, MalformedInput, MorphographError
from morphograph.flooding import flooding_from_nodes
from morphograph.formats import (
    image_to_graph,
    labels_to_pgm,
    parse_pgm,
    parse_wgr,
    to_dot,
    write_pgm,
    write_wgr,
)
from morphograph.graphs import Labeling, WeightedGraph, regional_minima
from morphograph.weights import TOP, W_MAX


def test_wgr_roundtrip(five_path_flooding):
    text = write_wgr(five_path_flooding)
    g = parse_wgr(text)
    assert g.edges == five_path_flooding.edges
    assert g.node_weights == five_path_flooding.node_weights
    assert g.edge_weights == five_path_flooding.edge_weights
    assert g.dummies == five_path_flooding.dummies


def test_wgr_comments_and_unweighted():
    g = parse_wgr("# a comment\nnode 0\nnode 1\nedge 0 1\n")
    assert g.num_nodes == 2 and g.node_weights is None and g.edge_weights is None


@pytest.mark.parametrize(
    "text",
    [
        "node 0 5\nnode 1\n",              # mixed node weighting
        "node 0\nnode 2\n",                # non-dense ids
        "node 0\nnode 0\n",                # duplicate
        "node 0\nnode 1\nedge 0 1 3\nedge 0 1\n",  # mixed edge weighting
        "frobnicate 1 2\n",
        "node 0\nnode 1\nedge 0 1\nedge 1 0\n",    # parallel edge
        "node zero\n",
        "node 0 -3\nnode 1 -3\n",                  # weights are levels
    ],
)
def test_wgr_rejects_malformed(text):
    with pytest.raises(MalformedInput):
        parse_wgr(text)


@pytest.mark.parametrize(
    "text",
    [
        "node 0 9223372036854775807\nnode 1 4\nedge 0 1 4\n",  # touched by an edge
        "node 0 9223372036854775807\nnode 1 4\n",             # no weighted edges
        "node 0 9223372036854775807\nnode 1 4\nnode 2 4\nedge 1 2\n",  # unweighted edges
        "node 0 4\nnode 1 4\nedge 0 1 9223372036854775807\n",  # never on an edge
    ],
)
def test_top_is_refused_where_it_could_reach_an_edge(text):
    with pytest.raises(MalformedInput):
        parse_wgr(text)


def test_pgm_ascii_and_binary_agree():
    ascii_pgm = b"P2\n# comment\n3 2 9\n0 1 2\n3 4 5\n"
    binary = write_pgm(3, 2, [0, 1, 2, 3, 4, 5], 9)
    assert parse_pgm(ascii_pgm) == parse_pgm(binary) == (3, 2, 9, [0, 1, 2, 3, 4, 5])


def test_pgm_sixteen_bit():
    data = b"P5 2 1 300\n" + bytes([1, 44, 0, 255])
    assert parse_pgm(data) == (2, 1, 300, [300, 255])


@pytest.mark.parametrize(
    "data",
    [b"P6 2 2 255\n" + bytes(12), b"P5 2 2 255\n" + bytes(3), b"P2 2 2 255\n1 2 3"],
)
def test_pgm_rejects_malformed(data):
    with pytest.raises(MalformedImage):
        parse_pgm(data)


@pytest.mark.parametrize("data", [
    b"P2 2 1 99999999999999999999\n9223372036854775807 0\n",  # a pixel at TOP
    b"P2 2 1 65536\n65536 0\n",
    b"P5 2 1 65536\n" + bytes(4),
    b"P2 2 1 0\n0 0\n",
    b"P2 2 1 -1\n0 0\n",
])
def test_pgm_maxval_outside_the_format_is_refused(data):
    with pytest.raises(MalformedImage, match="maxval"):
        parse_pgm(data)


@pytest.mark.parametrize("data", [
    b"P2 2 1 9\n10 0\n",
    b"P2 2 1 9\n0 -1\n",
    b"P2 1 1 65535\n65536\n",
    b"P5 2 1 9\n" + bytes([0, 10]),
    b"P5 2 1 300\n" + bytes([1, 45, 0, 0]),  # 301, two bytes a sample
])
def test_pgm_pixel_outside_the_range_is_refused_in_both_encodings(data):
    with pytest.raises(MalformedImage, match=r"^pixel outside \[0, maxval\]$"):
        parse_pgm(data)


@pytest.mark.parametrize("maxval", [1, 9, 255, 256, 65535])
def test_pgm_roundtrip_at_every_sample_width(maxval):
    pixels = [0, maxval, maxval // 2, 1, maxval - 1, maxval // 3]
    data = write_pgm(3, 2, pixels, maxval)
    assert len(data) == len(f"P5 3 2 {maxval}\n") + len(pixels) * (2 if maxval > 255 else 1)
    assert parse_pgm(data) == (3, 2, maxval, pixels)


def test_write_pgm_clips_and_refuses_a_maxval_outside_the_format():
    assert parse_pgm(write_pgm(2, 1, [3, 0], 1000)) == (2, 1, 1000, [3, 0])
    assert parse_pgm(write_pgm(2, 1, [300, 70000], 65535)) == (2, 1, 65535, [300, 65535])
    assert parse_pgm(write_pgm(2, 1, [300, 0], 255)) == (2, 1, 255, [255, 0])
    for maxval in (0, -1, 65536):
        with pytest.raises(ValueError, match="maxval"):
            write_pgm(2, 1, [0, 0], maxval)


def test_pgm_non_numeric_pixel_is_malformed_image():
    with pytest.raises(MalformedImage):
        parse_pgm(b"P2 2 1 9\n1 x\n")


_header_number = st.one_of(
    st.integers(-3, 6).map(str),
    st.sampled_from(["255", "256", "65535", "65536", "0", "+2", "1_0", "10" * 30, "x", "2.5"]),
)
_filler = st.sampled_from([" ", "\n", "\t", " # note\n", "#\n", "\n# 1 2 3\n"])


@st.composite
def _pgm_bytes(draw):
    magic = draw(st.sampled_from(["P2", "P5", "P6", "P", ""]))
    fields = draw(st.lists(_header_number, min_size=0, max_size=3))
    header = magic
    for f in fields:
        header += draw(_filler) + f
    header += draw(st.sampled_from(["\n", " ", "", "# c\n"]))
    if magic == "P2":
        tokens = draw(st.lists(
            st.one_of(st.integers(-2, 70000).map(str), st.sampled_from(["x", "#c\n", "-"])),
            max_size=40,
        ))
        body = " ".join(tokens).encode()
    else:
        body = draw(st.binary(max_size=80))
    return header.encode() + body


@settings(max_examples=400, deadline=None)
@given(_pgm_bytes())
def test_parse_pgm_fuzz_raises_only_package_errors(data):
    try:
        width, height, maxval, pixels = parse_pgm(data)
    except MorphographError:
        return
    assert len(pixels) == width * height
    assert 1 <= maxval <= 65535
    assert all(0 <= p <= maxval for p in pixels)


_wgr_token = st.one_of(
    st.integers(-2, 6).map(str),
    st.sampled_from(["-1", "10" * 30, "1_0", "+1", "\u00b2", "\u0663", "x", "2.5", "#", "node"]),
)


@st.composite
def _wgr_text(draw):
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        head = draw(st.sampled_from(["node", "edge", "# dummy", "#", "junk", ""]))
        lines.append(" ".join([head] + draw(st.lists(_wgr_token, max_size=4))))
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@example("node 0 1\n# dummy \u00b2\n")
@example("node 0 1\nnode 1 2\nedge 0 1 2\n# dummy " + "9" * 5000 + "\n")  # past int()'s limit
@given(_wgr_text())
def test_parse_wgr_fuzz_raises_only_package_errors(text):
    try:
        g = parse_wgr(text)
    except MorphographError:
        return
    again = parse_wgr(write_wgr(g))
    assert (again.num_nodes, again.edges, again.dummies) == (g.num_nodes, g.edges, g.dummies)
    assert (again.node_weights, again.edge_weights) == (g.node_weights, g.edge_weights)


def test_a_dummy_id_past_the_int_limit_is_a_bad_line():
    text = "node 0 1\nnode 1 2\nedge 0 1 2\n# dummy " + "9" * 5000
    with pytest.raises(MalformedInput, match=r"^line 4: cannot parse '# dummy 999"):
        parse_wgr(text)


# -- the line parser parse_wgr replaced, kept as its oracle ------------------


def _oracle_level(token, lineno, top_ok=False):
    value = int(token)
    if not (0 <= value <= W_MAX or top_ok and value == TOP):
        raise MalformedInput(f"line {lineno}: weight {value} outside [0, {W_MAX}]")
    return value


def _oracle_parse_wgr(text):
    """One split, one strip and one try per line, then checks over whole
    lists.  Two changes: a ``# dummy`` id that ``int`` refuses is a bad
    line, where this parser let the ``ValueError`` out, and only the token
    ``dummy`` itself flags a dummy, where this parser took ``# dummyX``."""
    nodes, edges, edge_w, dummies = {}, [], [], set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        try:
            if not line:
                if raw.strip().startswith("# dummy"):
                    parts = raw.strip().split()
                    if len(parts) == 3 and parts[1] == "dummy" and parts[2].isdecimal():
                        dummies.add(int(parts[2]))
                continue
            parts = line.split()
            if parts[0] == "node" and len(parts) in (2, 3):
                nid = int(parts[1])
                if nid in nodes:
                    raise MalformedInput(f"line {lineno}: duplicate node {nid}")
                nodes[nid] = (_oracle_level(parts[2], lineno, top_ok=True)
                              if len(parts) == 3 else None)
            elif parts[0] == "edge" and len(parts) in (3, 4):
                edges.append((int(parts[1]), int(parts[2])))
                edge_w.append(_oracle_level(parts[3], lineno) if len(parts) == 4 else None)
            else:
                raise ValueError
        except MalformedInput:
            raise
        except ValueError:
            raise MalformedInput(f"line {lineno}: cannot parse {raw!r}") from None
    if not nodes:
        raise MalformedInput("input graph has no nodes")
    if sorted(nodes) != list(range(len(nodes))):
        raise MalformedInput("node ids must be dense 0..N-1")
    node_vals = [nodes[i] for i in range(len(nodes))]
    weighted_nodes = [v is not None for v in node_vals]
    if any(weighted_nodes) and not all(weighted_nodes):
        raise MalformedInput("either all nodes carry a weight or none")
    weighted_edges = [v is not None for v in edge_w]
    if any(weighted_edges) and not all(weighted_edges):
        raise MalformedInput("either all edges carry a weight or none")
    if TOP in node_vals:
        touched = {i for e in edges for i in e}
        for i, w in enumerate(node_vals):
            if w == TOP and (i in touched or not any(weighted_edges)):
                raise MalformedInput(f"node {i}: weight {TOP} only if no edge touches it "
                                     "and the edges are weighted")
    try:
        return WeightedGraph(
            len(nodes),
            tuple(edges),
            tuple(node_vals) if node_vals and node_vals[0] is not None else None,
            tuple(edge_w) if edge_w and edge_w[0] is not None else None,
            frozenset(dummies),
        )
    except ValueError as exc:
        raise MalformedInput(str(exc)) from None


def _outcome(parse, text):
    """The graph's fields, or the type and message of what ``parse`` raised."""
    try:
        g = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return g.num_nodes, g.edges, g.node_weights, g.edge_weights, g.dummies


@settings(max_examples=400, deadline=None)
@example("node 0 1\nnode 1 2\nedge 0 1 2\n# dummy " + "9" * 5000 + "\n")
@given(_wgr_text())
def test_parse_wgr_matches_the_line_parser_on_fuzzed_text(text):
    assert _outcome(parse_wgr, text) == _outcome(_oracle_parse_wgr, text)


def _grid_wgr(rng, w, h, node_weights, edge_weights):
    lines = [f"node {i} {rng.randint(0, 9)}" if node_weights else f"node {i}"
             for i in range(w * h)]
    pairs = [(i, i + 1) for i in range(w * h) if (i + 1) % w]
    pairs += [(i, i + w) for i in range(w * h - w)]
    lines += [f"edge {u} {v} {rng.randint(0, 9)}" if edge_weights else f"edge {u} {v}"
              for u, v in pairs]
    return lines


def _mutate(rng, lines):
    """One seeded edit of a list of .wgr lines, kept in place."""
    nodes = [i for i, line in enumerate(lines) if line.startswith("node")]
    edges = [i for i, line in enumerate(lines) if line.startswith("edge")]
    n = len(nodes)
    at = rng.randrange(len(lines) + 1)
    kind = rng.randrange(19)
    if kind == 0:
        lines.insert(at, rng.choice(["", "   ", "\t"]))
    elif kind == 1:
        lines.insert(at, rng.choice(["# comment", "#", "  # edge 0 1", "#node 0"]))
    elif kind == 2 and lines:
        i = rng.randrange(len(lines))
        lines[i] += rng.choice([" # trailing", "#", "\t# x y z", " #dummy 1"])
    elif kind == 3 and lines:
        i = rng.randrange(len(lines))
        lines[i] = lines[i].replace(" ", rng.choice(["\t", "  ", " \t "]))
    elif kind == 4:
        dummy = rng.choice([str(rng.randrange(n + 2)), "-1", "x", "\u00b2", "\u0663",
                            "9" * 5000, "1 2", ""])
        lines.insert(at, rng.choice(["# dummy ", "  # dummy ", "# dummyX ", "#  dummy "])
                     + dummy)
    elif kind == 5 and edges:
        i = rng.choice(edges)
        head, u, v, *rest = lines[i].split()
        lines[i] = " ".join([head, v, u, *rest])
    elif kind == 6 and edges:
        line = lines[rng.choice(edges)].split()
        line[1], line[2] = (line[2], line[1]) if rng.random() < 0.5 else (line[1], line[2])
        lines.insert(at, " ".join(line))
    elif kind == 7:
        u = rng.randrange(max(n, 1))
        lines.insert(at, rng.choice([f"edge {u} {u} 3", f"edge {u} {u}"]))
    elif kind == 8:
        end = rng.choice([n, n + 5, -1, 10**30])
        lines.insert(at, rng.choice([f"edge 0 {end} 1", f"edge {end} 0", f"edge {end} 0 2"]))
    elif kind == 9 and nodes:
        lines.insert(at, lines[rng.choice(nodes)])
    elif kind == 10 and nodes:
        del lines[rng.choice(nodes)]
    elif kind == 11 and lines:
        i = rng.randrange(len(lines))
        parts = lines[i].split()  # drop the weight column, or add one
        weighted = parts[:1] == ["node"] and len(parts) == 3 or len(parts) == 4
        lines[i] = " ".join(parts[:-1]) if weighted else lines[i] + " 4"
    elif kind == 12 and nodes:
        i = rng.choice(nodes)
        lines[i] = " ".join(lines[i].split()[:2] + [str(TOP)])
    elif kind == 13:
        lines.insert(at, f"node {n} {TOP}")
    elif kind == 14 and lines:
        i = rng.randrange(len(lines))
        parts = lines[i].split()
        if len(parts) >= 3:
            parts[-1] = str(rng.choice([0, W_MAX, W_MAX + 1, -1, TOP, TOP + 1]))
            lines[i] = " ".join(parts)
    elif kind == 15:
        lines.insert(at, rng.choice(["junk", "node", "edge 1", "node 0 1 2", "edge 0 1 2 3",
                                     "node x", "edge 0 1 2.5", "NODE 0", "node +1", "node 1_0"]))
    elif kind == 16:
        lines.insert(at, f"node {n + rng.randint(0, 3)}")
    elif kind == 17 and lines:
        i = rng.randrange(len(lines))
        lines[i] = rng.choice(["\u00a0", " ", "\t"]) + lines[i] + rng.choice(["\u00a0", " "])
    elif kind == 18:
        rng.shuffle(lines)


def test_parse_wgr_matches_the_line_parser_on_mutated_grids():
    rng = random.Random(15)
    faults = 0
    for case in range(600):
        lines = _grid_wgr(rng, rng.randint(1, 5), rng.randint(1, 4),
                          rng.random() < 0.5, rng.random() < 0.7)
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            _mutate(rng, lines)
        end = rng.choice(["\n", "\r\n", "\r"])
        text = end.join(lines) + rng.choice(["", end])
        want = _outcome(_oracle_parse_wgr, text)
        assert _outcome(parse_wgr, text) == want, text
        faults += want[0] is MalformedInput
    assert 100 < faults < 500  # the corpus holds both kinds of text


def test_image_to_graph_line():
    g = image_to_graph(b"P2 3 1 255\n0 1 0\n")
    assert g.num_nodes == 3
    assert g.edges == ((0, 1), (1, 2))
    assert g.node_weights == (0, 1, 0)


def test_image_to_graph_connectivity_counts():
    data = b"P2 2 2 255\n0 1 2 3\n"
    assert len(image_to_graph(data, 4).edges) == 4
    assert len(image_to_graph(data, 8).edges) == 6
    with pytest.raises(MalformedImage):
        image_to_graph(data, 6)


def test_image_two_basin_ramp():
    # 5x5 with two separated dark spots becomes two regional minima
    rows = [
        "9 9 9 9 9",
        "9 0 9 9 9",
        "9 9 9 9 9",
        "9 9 9 1 9",
        "9 9 9 9 9",
    ]
    data = ("P2 5 5 9\n" + "\n".join(rows) + "\n").encode()
    g = image_to_graph(data, 4)
    fg = flooding_from_nodes(g)
    minima = regional_minima(fg, "nodes")
    assert len(minima) == 2


def test_dot_output_mentions_weights(path4):
    dot = to_dot(path4)
    assert "0 -- 1" in dot and 'label="3"' in dot


def test_labels_to_pgm_legend():
    labeling = Labeling((1, 2, -1, 1), "nodes")
    data, legend = labels_to_pgm(2, 2, labeling)
    _, _, _, pixels = parse_pgm(data)
    assert pixels == [1, 2, 0, 1]
    assert legend["gray"] == {"1": 1, "2": 2, "Z": 0}
