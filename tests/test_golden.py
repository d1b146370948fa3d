"""Byte-identical CLI output on seeded inputs.

Each case runs one CLI call on an input generated here and compares the
sha256 of what it writes (plus the ``.legend.json`` sidecar of
``pgm-labels``) with a digest recorded before the flooding graph learned
to cache its validation and minima.  A refactor that keeps behaviour
keeps every digest; a deliberate output change must re-record them.
The ``prune`` digests are also checked against depth pruning, computed
by the library's independent route.
"""

import hashlib
import math
import random

import pytest

from morphograph.cli import main
from morphograph.flooding import as_flooding
from morphograph.formats import image_to_graph, parse_wgr, write_pgm, write_wgr
from morphograph.steepness import prune_to_steepness

SIZE = 64


def terrain(seed, size=SIZE, levels=256):
    """Voronoi distance plus noise, quantized to ``levels`` gray levels."""
    rng = random.Random(seed)
    sites = [(rng.randrange(size), rng.randrange(size)) for _ in range(12)]
    pixels = []
    for y in range(size):
        for x in range(size):
            d = math.isqrt(min((x - sx) ** 2 + (y - sy) ** 2 for sx, sy in sites))
            pixels.append(min(255, 6 * d + rng.randrange(8)) * levels // 256)
    return pixels


def grid_wgr(size, pixels):
    """4-connected grid; an edge weighs the gray difference of its pixels."""
    lines = [f"node {i}" for i in range(size * size)]
    for y in range(size):
        for x in range(size):
            i = y * size + x
            for j in ([i + 1] if x + 1 < size else []) + ([i + size] if y + 1 < size else []):
                lines.append(f"edge {i} {j} {abs(pixels[i] - pixels[j])}")
    return "\n".join(lines) + "\n"


# input -> (file name, file bytes, flags for every command, flags for tie-aware ones)
INPUTS = {
    "relief4": ("relief4.pgm", lambda: write_pgm(SIZE, SIZE, terrain(1)),
                ["--connectivity", "4"], ["--tie", "min-label"]),
    "plateau8": ("plateau8.pgm", lambda: write_pgm(SIZE, SIZE, terrain(2, levels=8)),
                 ["--connectivity", "8", "--depth", "4"], ["--tie", "seed:7"]),
    "grid": ("grid.wgr", lambda: grid_wgr(SIZE, terrain(3)).encode(), [], ["--tie", "min-label"]),
    "small": ("small.pgm", lambda: write_pgm(12, 12, terrain(4, size=12)),
              ["--depth", "3"], ["--tie", "min-label"]),
}

TIE_COMMANDS = ("watershed", "waterfall", "mst", "dist")


def _cases():
    for name in ("relief4", "plateau8", "grid"):
        yield name, ["flood"]
        yield name, ["prune", "--steepness", "3"]
        yield name, ["waterfall"]
        yield name, ["mst"]
        for algo in ("dijkstra", "core", "hq"):
            for fmt in ("json", "dot", "pgm-labels"):
                if fmt == "pgm-labels" and name == "grid":
                    continue
                yield name, ["watershed", "--algo", algo, "--format", fmt]
        for method in ("core", "dijkstra"):
            yield name, ["dist", "--method", method]
    # the dense solvers are capped far below 64 x 64 nodes
    yield "small", ["dist", "--method", "gondran"]
    yield "small", ["dist", "--method", "core"]


CASES = {f"{name}:{' '.join(args)}": (name, args) for name, args in _cases()}


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for fname, make, _, _ in INPUTS.values():
        (root / fname).write_bytes(make())
    return root


def run_case(case, root):
    """sha256 over the output file and its legend sidecar, if any."""
    name, args = CASES[case]
    fname, _, flags, tie_flags = INPUTS[name]
    out = root / (case.replace(":", "_").replace(" ", "_") + ".out")
    argv = [args[0], str(root / fname), *args[1:], *flags, "--output", str(out)]
    if args[0] in TIE_COMMANDS:
        argv += tie_flags
    assert main(argv) == 0
    digest = hashlib.sha256(out.read_bytes())
    legend = root / (out.name + ".legend.json")
    if legend.exists():
        digest.update(legend.read_bytes())
    return digest.hexdigest()


GOLDEN = {
    "grid:dist --method core":
        "853587d70f94f2db8216b3a44112d6130a1a536d047c719e5af41f6307b22f03",
    "grid:dist --method dijkstra":
        "51f85bb2a3e8bbfaf0068f4b7f54eb59f0b52ac6794fa9ae7cc252c36bfa7326",
    "grid:flood":
        "9bff6eed98ae33f12a44e367dd60d7d65dac3dcc833b8918f5342c59b352883c",
    "grid:mst":
        "78082724216bcb0a92fd9114e8a724e273f05f5cabbc95b00b056c5d6d692a72",
    "grid:prune --steepness 3":
        "b2f6c80a8bcc919fb4456da52eaf82c6ab99f4198191bac96ebe168824f2f8ec",
    "grid:waterfall":
        "72ecb38df4858122ec3c460a74cf89421fa7146562da7cb317d3c80f19825a87",
    "grid:watershed --algo core --format dot":
        "990eacb6616975e139463b79601045651db9121becdd14066cb9b8c32eb9e4ab",
    "grid:watershed --algo core --format json":
        "cbd659edec0c9edc414fe1c476f29fc9d595bfcbf03f8b86eb54cfba21dfc81c",
    "grid:watershed --algo dijkstra --format dot":
        "9cc9c83212ff3f16198119b3600ade8a00a90cc58401274f08fd129809ac10ef",
    "grid:watershed --algo dijkstra --format json":
        "a54488131c5b1790e000d4c83b6a11c9ce5b4ee8afa4e66122769f8f6e5d6c13",
    "grid:watershed --algo hq --format dot":
        "990eacb6616975e139463b79601045651db9121becdd14066cb9b8c32eb9e4ab",
    "grid:watershed --algo hq --format json":
        "cbd659edec0c9edc414fe1c476f29fc9d595bfcbf03f8b86eb54cfba21dfc81c",
    "plateau8:dist --method core":
        "1c45263e9a3c9267f5d934ffafc8bebc21d0a8b6aeb6c52818bc04e582ed780c",
    "plateau8:dist --method dijkstra":
        "531059b6df9a9c4eab2b5c5b3c55e10468b7e52dc0a20576039d5d79e196ef4e",
    "plateau8:flood":
        "ab07817dfa34b5eb162e4300f2bd1ccd45d8c279deaedefc080992063b0b806d",
    "plateau8:mst":
        "2b48a112bc406bbd4df2063795c03a5c1c44d8c7197c6556a0e3e503e6baa903",
    "plateau8:prune --steepness 3":
        "fd502fb86f75e7758fa33619829c3600690c275115b06b2051a91e74e50a4f77",
    "plateau8:waterfall":
        "65b1c1fbd4008963af298133bbcb4ab70b25d18db33ac1cf3f83c74095047122",
    "plateau8:watershed --algo core --format dot":
        "973a818b571859a82c619b5f0d3b992a75201300e2b4a32bc55d88f3fa461b4e",
    "plateau8:watershed --algo core --format json":
        "8f2bd1ef792b2252787f72b7f8af2b3f380a26143a96898adccdbe69a6f87fdf",
    "plateau8:watershed --algo core --format pgm-labels":
        "8486d8837f9565be08b98a3eda4ee623ec4b183e7e7baf1436b55449f908f8de",
    "plateau8:watershed --algo dijkstra --format dot":
        "53812c56e43860b617ff0c2b3316522f707e8948163336e35d2d00bb65c89d7a",
    "plateau8:watershed --algo dijkstra --format json":
        "de20f3b5d5259e2b273fb5891e343e41c766badb35ddce7cd35b19f6236d33f0",
    "plateau8:watershed --algo dijkstra --format pgm-labels":
        "14e42ac96bf8dee31b141ad10e191768c655120b4d492eded054d1332651dc6d",
    "plateau8:watershed --algo hq --format dot":
        "b9176087f74b07013c9f708430317fbf72e1817eb27314153b612e653b79bad4",
    "plateau8:watershed --algo hq --format json":
        "0217174ec25e3a1e786d84c6a7c553fe86297ec7d2d168a02f614cb233bdbcb6",
    "plateau8:watershed --algo hq --format pgm-labels":
        "3a18f7f4db75b9c29e51f2458c58b21d6e4a23c199da04d8f45571b81bfa9f6a",
    "relief4:dist --method core":
        "70acff8867207f8f99d4e5e89a1ef10b0402ce459aeb46dec12de11498bda1ba",
    "relief4:dist --method dijkstra":
        "8fb0042291dd44b53021b1128c05eb151775ea860b8dc530a3876fcb9ed4a9b5",
    "relief4:flood":
        "16c2d0973c5ae643a37c9ae6b4eeb8bce5c5f57a2d95160f1e18b35518234047",
    "relief4:mst":
        "af48f895113ada7885fcd7b549976758efefb7efc06ccbf2c616f277c9579d65",
    "relief4:prune --steepness 3":
        "670c3e28928ac017a7a15ba0893a36578f9910e8cbd2244e10faf935879bfa91",
    "relief4:waterfall":
        "9481cd583b794383d5dce0c10d6d78949a637b2968db6b315ab2212cc9d6356d",
    "relief4:watershed --algo core --format dot":
        "4d13d0e0be6dc8f7152899ade0fb6d85bd161d0b0d2efd20bed7d82c9fe2aebb",
    "relief4:watershed --algo core --format json":
        "1c263cac63c0314ef7e36371d925a8c10b43731bdfe02625e211364dc28cd382",
    "relief4:watershed --algo core --format pgm-labels":
        "4dfddafccb5e8fae51fdb3094d6f69c43635b7dd7d1cd2e5463bb538a030fae7",
    "relief4:watershed --algo dijkstra --format dot":
        "c403410e61141abbc1a912900ab1036f75e1c8c0d1fee133a12ad21b2e4c970e",
    "relief4:watershed --algo dijkstra --format json":
        "8fb729adb607950a96066ea736c0dee866de46d1fc337dc1843730aed62c5f88",
    "relief4:watershed --algo dijkstra --format pgm-labels":
        "a242b309e80957980bd29d6d2af2189eb8e64580f05c81af3862d366e8ba2d74",
    "relief4:watershed --algo hq --format dot":
        "4d13d0e0be6dc8f7152899ade0fb6d85bd161d0b0d2efd20bed7d82c9fe2aebb",
    "relief4:watershed --algo hq --format json":
        "1c263cac63c0314ef7e36371d925a8c10b43731bdfe02625e211364dc28cd382",
    "relief4:watershed --algo hq --format pgm-labels":
        "4dfddafccb5e8fae51fdb3094d6f69c43635b7dd7d1cd2e5463bb538a030fae7",
    "small:dist --method core":
        "fa30fe35c69fbcb9e2df5b5eefd9d96ffef943815fb79d983201de07c6967378",
    "small:dist --method gondran":
        "ed4ed95ad4ff47477ea5eaaa171e073b2e24985cacf03bb02b27c84c38f8d50b",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, input_dir):
    assert run_case(case, input_dir) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(c for c in CASES if CASES[c][1][0] == "prune"))
def test_golden_prune_is_depth_pruning(case, input_dir):
    # the CLI prunes locally; prune_to_steepness ranks whole tracks
    name, args = CASES[case]
    fname, _, flags, _ = INPUTS[name]
    data = (input_dir / fname).read_bytes()
    if fname.endswith(".wgr"):
        g = parse_wgr(data.decode())
    else:
        g = image_to_graph(data, int(flags[flags.index("--connectivity") + 1]))
    depth = write_wgr(prune_to_steepness(as_flooding(g), int(args[-1])))
    assert run_case(case, input_dir) == hashlib.sha256(depth.encode()).hexdigest() == GOLDEN[case]
