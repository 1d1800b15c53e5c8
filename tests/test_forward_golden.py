"""Golden digests of ``forward`` outputs on seeded graphs.

Each mode hashes the output files of 40 seeded graphs, centre and
pendant, a quarter of them with a duplicated edge, with 0-20 masses.
Every change to root isolation, refinement or classification must keep
these bytes: the digests were recorded before roots were found from
float-proposed cells proven by exact signs, and they hold after it.
"""

import hashlib
import random

import pytest

from starstring.cli import main
from starstring.model import serialize_graph
from tests.conftest import (
    duplicated_edge_center_graph,
    duplicated_edge_pendant_graph,
    random_center_graph,
    random_pendant_graph,
)

MODES = {
    "default": [],
    "digits-30": ["--digits", "30"],
    "frequencies": ["--as-frequencies"],
    "width-1e-300": ["--refine-width", "1e-300"],
}

DIGESTS = {
    "default": "885bee9cf074f99da92bce5a7e972c8dd6859dae1ff05c2c1ed484e31fd76d0a",
    "digits-30": "de1ae1ce7286b96f67b7357b886b0d07d9e185948386e3fbd3273e86afc657d5",
    "frequencies": "3a99a945238025cc7bb97c90b31e0d6a890171321cce8ef9e7481fa2fd1e239e",
    "width-1e-300": "32f7dbb3d0ede4e36b3de218ba05d97a37cfa4c41c9da9cbb9d7ffbba8d774b3",
}


def _graphs():
    rng = random.Random(20261022)
    out = []
    for i in range(40):
        kind = i % 8
        if kind == 0:
            out.append(duplicated_edge_center_graph(rng, copies=rng.randint(2, 3)))
        elif kind == 4:
            out.append(duplicated_edge_pendant_graph(rng, extra=rng.randint(0, 1)))
        elif kind % 2:
            out.append(random_center_graph(rng, q_max=5, max_masses=4, mass_choices=(0, 1, 2)))
        else:
            out.append(random_pendant_graph(rng, q_max=5, max_masses=4))
    return out


@pytest.mark.parametrize("mode", sorted(MODES))
def test_forward_outputs_keep_their_bytes(tmp_path, mode):
    digest = hashlib.sha256()
    for i, graph in enumerate(_graphs()):
        path = tmp_path / f"g{i}.json"
        path.write_bytes(serialize_graph(graph))
        out = tmp_path / f"o{i}.json"
        assert main(["forward", "--graph", str(path), "--out", str(out), *MODES[mode]]) == 0
        digest.update(b"%d\n" % i + out.read_bytes())
    assert digest.hexdigest() == DIGESTS[mode]
