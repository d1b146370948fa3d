"""Watershed-layer results pinned on seeded inputs.

Each case hashes one function's results over a family of inputs at
depths k = 1-4: seeded random flooding graphs, and quantized 24 x 24
terrains (4- and 8-connected) where plateaus make many ties.  The
digests were recorded before ``_propagate`` and ``drainage_forest`` were
rewritten, so they pin the tie choices of ``partition`` and of both
``drainage_forest`` policies, not only their invariants.
"""

import hashlib
import random

import pytest

from morphograph import (
    UNSET,
    basins_with_zones,
    drainage_forest,
    flooding_from_nodes,
    partition,
    prune_to_steepness,
    unique_drain,
)
from morphograph.flooding import assign_pairs, minima_of_flooding
from morphograph.formats import pixel_graph
from conftest import random_flooding
from test_golden import terrain

SIZE = 24
DEPTHS = (1, 2, 3, 4)


def random_inputs():
    rng = random.Random(6006)
    return [random_flooding(rng, max_nodes=rng.choice((6, 10, 14))) for _ in range(300)]


def pixel_inputs():
    # (terrain seed, gray levels, connectivity)
    shapes = ((7, 8, 4), (10, 8, 4), (6, 12, 8), (9, 12, 8))
    return [
        flooding_from_nodes(pixel_graph(SIZE, SIZE, terrain(seed, SIZE, levels), conn))
        for seed, levels, conn in shapes
    ]


def forest(g, tie):
    f = drainage_forest(g, tie)
    return sorted(f.edges), f.labels.values


# name -> result of one call on (flooding graph, depth, input index)
FUNCTIONS = {
    "basins_with_zones": lambda fg, k, i: basins_with_zones(fg, k).values,
    "partition:min-label": lambda fg, k, i: partition(fg, k, "min-label").values,
    "partition:seed": lambda fg, k, i: partition(fg, k, f"seed:{i}").values,
    "drainage_forest:min-label":
        lambda fg, k, i: forest(prune_to_steepness(fg, k), "min-label"),
    "drainage_forest:seed":
        lambda fg, k, i: forest(prune_to_steepness(fg, k), f"seed:{i}"),
    "unique_drain:min-label":
        lambda fg, k, i: unique_drain(prune_to_steepness(fg, k), "min-label").edges,
    "unique_drain:seed":
        lambda fg, k, i: unique_drain(prune_to_steepness(fg, k), f"seed:{i}").edges,
}


@pytest.fixture(scope="module")
def inputs():
    return {"random": random_inputs(), "pixel": pixel_inputs()}


def digest(fn, graphs):
    h = hashlib.sha256()
    for i, fg in enumerate(graphs):
        for k in DEPTHS:
            h.update(repr(fn(fg, k, i)).encode())
    return h.hexdigest()


GOLDEN = {
    "pixel:basins_with_zones":
        "b0e056e798f21f9495ee5de4f84f9fe505d9d4c8a232829ea56095b16d250927",
    "pixel:drainage_forest:min-label":
        "b7b7a7c563423788b781e93fe324bd73dc2f5b6b3020e1a2df72980217075b97",
    "pixel:drainage_forest:seed":
        "a20673c89e1628b7e8abfdcef349ee64b60d57c6e00ef111f78b04bfb7680a00",
    "pixel:partition:min-label":
        "8156d06e103d72e07794fb554b08b646b43ba9eeff15e808471257065b32497d",
    "pixel:partition:seed":
        "2a4b8c8c68206806c22fd834e0c8fd7785c19967b73df5272f95af4aaac76129",
    "pixel:unique_drain:min-label":
        "9f2355ae061b24541dea09b776d5e90210b1d7f16ce5d4022a5b9946721da952",
    "pixel:unique_drain:seed":
        "3e7214ebdd2e172b796f20b602a091001d16b7437b17d9d3820eeb8512b8b749",
    "random:basins_with_zones":
        "cc43c99c5d48aea761ef7c2d6214a352660da6456e603923c85f65d61bcae279",
    "random:drainage_forest:min-label":
        "daa491bbda7941558b7c4c8755fe1b142cce0643205cd945ad4f9b1ff736e5f8",
    "random:drainage_forest:seed":
        "98429cf20228154ca5bed46f15c40a46ecb4f0f2b06cc06799d06fb59ed94fba",
    "random:partition:min-label":
        "ac2e69bcb74f17f2118c6bc20921be35193e624317113d983479777202062b37",
    "random:partition:seed":
        "7002e91db037491d9ebb025218652ccc8c7e90ce80ff8374377fa4fdad2680a0",
    "random:unique_drain:min-label":
        "bb6e3fe4d074c54e7808f274e589b31e8b82a8938ca3b098ff17e19b8d4f4abd",
    "random:unique_drain:seed":
        "cb18bffd01a82d90e583ba0b195bda9602f45f00eaa1ad71cee8445c852016f9",
}


@pytest.mark.parametrize("family", ("random", "pixel"))
@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_watershed_layer_golden(name, family, inputs):
    assert digest(FUNCTIONS[name], inputs[family]) == GOLDEN[f"{family}:{name}"]


@pytest.mark.parametrize("family", ("random", "pixel"))
def test_unique_drain_keeps_the_inner_edges_and_the_assigned_pairs(family, inputs):
    # unique_drain pairs the nodes as assign_pairs does, without its dict:
    # the same edges, and under a seed the same draws from the generator
    for i, fg in enumerate(inputs[family]):
        for k in DEPTHS:
            g = prune_to_steepness(fg, k)
            labels = minima_of_flooding(g).values
            inner = [eid for eid, (u, v) in enumerate(g.edges)
                     if labels[u] != UNSET and labels[v] != UNSET]
            for seed in (None, i):
                r1, r2 = [None if seed is None else random.Random(seed) for _ in range(2)]
                got = unique_drain(g, "min-label" if seed is None else r1)
                want = g.partial(inner + list(assign_pairs(g, r2).values()))
                assert got.edges == want.edges and got.edge_weights == want.edge_weights
                assert seed is None or r1.getstate() == r2.getstate()
