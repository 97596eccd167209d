"""Seeded mutations of the fixture inputs: ``partition`` exits 0 or 2, never
with a traceback, and every exit-2 message names one of its input files.

Each case mutates one of the mesh, topology and weights documents by a bit
flip, a deleted run of bytes, or a number swapped for an edge value, and
runs the verb with both back-ends on it.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

import pytest

from hierpart.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
INPUTS = {"--mesh": "demo_mesh.json", "--topo": "topo_2x2.json",
          "--weights": "demo_weights.json"}
CASES = 100
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
EDGE_VALUES = (b"-1", b"0", b"-0.0", b"2.5", b"1e400", b"-1e400", b"NaN",
               b"Infinity", b"9223372036854775808", b"null", b"true", b"[]",
               b"{}", b'"7"')


def mutate(data: bytes, rng: random.Random) -> bytes:
    how = rng.choice(("flip", "delete", "swap", "swap"))
    if how == "swap":
        token = rng.choice(list(NUMBER.finditer(data)))
        return data[:token.start()] + rng.choice(EDGE_VALUES) + \
            data[token.end():]
    i = rng.randrange(len(data))
    if how == "flip":
        return data[:i] + bytes([data[i] ^ 1 << rng.randrange(8)]) + \
            data[i + 1:]
    return data[:i] + data[i + rng.randint(1, 16):]


def cases():
    """(flag of the mutated input, its mutated bytes), CASES of them."""
    rng = random.Random(20261020)
    originals = {flag: (FIXTURES / name).read_bytes()
                 for flag, name in INPUTS.items()}
    for _ in range(CASES):
        flag = rng.choice(sorted(INPUTS))
        yield flag, mutate(originals[flag], rng)


@pytest.mark.parametrize("method", ["rcb", "graph"])
def test_mutated_inputs_exit_0_or_2_naming_an_input(method, tmp_path,
                                                    capsys):
    failures = []
    for case, (flag, data) in enumerate(cases()):
        paths = {f: str(FIXTURES / name) for f, name in INPUTS.items()}
        paths[flag] = str(tmp_path / f"{case}-{INPUTS[flag]}")
        Path(paths[flag]).write_bytes(data)
        argv = ["partition", "--method", method, "--out",
                str(tmp_path / "out"), "--no-timestamp"]
        for f, path in paths.items():
            argv += [f, path]
        code = main(argv)
        err = capsys.readouterr().err
        if code not in (0, 2) or \
                code == 2 and not any(p in err for p in paths.values()):
            failures.append((case, flag, code, err))
    assert failures == []
