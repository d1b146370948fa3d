import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphograph import MalformedImage, MalformedInput, MorphographError
from morphograph.flooding import flooding_from_nodes
from morphograph.formats import (
    image_to_graph,
    labels_json,
    labels_to_pgm,
    parse_pgm,
    parse_wgr,
    to_dot,
    write_pgm,
    write_wgr,
)
from morphograph.graphs import Labeling, regional_minima


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
@given(_wgr_text())
def test_parse_wgr_fuzz_raises_only_package_errors(text):
    try:
        g = parse_wgr(text)
    except MorphographError:
        return
    again = parse_wgr(write_wgr(g))
    assert (again.num_nodes, again.edges, again.dummies) == (g.num_nodes, g.edges, g.dummies)
    assert (again.node_weights, again.edge_weights) == (g.node_weights, g.edge_weights)


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


def test_labels_json_hides_dummies(five_path_flooding):
    from morphograph import basins_with_zones
    from morphograph.flooding import minima_of_flooding, minima_sets

    fg = five_path_flooding
    labeling = basins_with_zones(fg, 2)
    payload = labels_json(fg, labeling, minima_sets(minima_of_flooding(fg)))
    assert payload["labels"] == [1, 1, 0, 2, 2]
    assert payload["zones"] == [2]
    assert payload["minima"] == [[0], [4]]


def test_dot_output_mentions_weights(path4):
    dot = to_dot(path4)
    assert "0 -- 1" in dot and 'label="3"' in dot


def test_labels_to_pgm_legend():
    labeling = Labeling((1, 2, -1, 1), "nodes")
    data, legend = labels_to_pgm(2, 2, labeling)
    _, _, _, pixels = parse_pgm(data)
    assert pixels == [1, 2, 0, 1]
    assert legend["gray"] == {"1": 1, "2": 2, "Z": 0}
