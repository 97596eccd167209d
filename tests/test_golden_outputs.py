"""Byte-identity of every CLI output on the shipped fixtures.

Each case runs one verb on ``fixtures/demo_mesh.json`` (or, for the
``tet-*`` cases, on ``meshgen.tet_box(6, 6, 6)`` written to a temporary
file) with ``--no-timestamp`` and compares the sha256 of every file it
writes with the digest recorded in ``GOLDEN``.  The ``frac-*`` cases use
weights with a fractional part, read from files written in shuffled
order: their sums depend on the order the weights are added in, which the
4.0/1.0 weights of the other cases cannot show.  The one-line cases run
each verb on one-line copies of its input documents, which take the
``json.load`` read path, and compare every output with the run on the
documents as written.  A refactor must leave all of them unchanged; a
change that is meant to alter an output updates its digests in the same
commit and says why.

To print the digests of the code under test (for example to record them):

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest

from hierpart.cli import main
from hierpart.formats import (dump_doc, load_assignment, save_mesh,
                              save_timing, save_topology, save_weights)
from hierpart.meshgen import tet_box
from hierpart.topology import build_topology

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MESH = FIXTURES / "demo_mesh.json"

PARTITION_CASES = [
    (topo, method, approach)
    for topo in ("topo_2x2", "topo_2x2x2")
    for method in ("rcb", "graph", "graph,rcb")
    for approach in ("1", "2")
]
# rebalance and metrics start from this partition's assignment.
START = ("topo_2x2x2", "rcb", "2")


def _case_name(topo, method, approach):
    return f"partition-{topo}-{method}-a{approach}"


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def _cli(*args) -> None:
    assert main([*args, "--no-timestamp"]) == 0


def _partition(tmp: Path, topo, method, approach) -> Path:
    out = tmp / _case_name(topo, method, approach)
    _cli("partition", "--mesh", str(MESH), "--topo", str(FIXTURES / f"{topo}.json"),
         "--method", method, "--approach", approach, "--out", str(out))
    return out


def _start(tmp: Path) -> tuple[list[str], Path]:
    """``_start_args`` for the demo mesh's start partition."""
    start = _partition(tmp, *START) / "assignment.json"
    return _start_args(tmp, MESH, start)


def _start_args(tmp: Path, mesh: Path, start: Path,
                topo: Path = FIXTURES / f"{START[0]}.json"
                ) -> tuple[list[str], Path]:
    """Arguments naming ``mesh``, ``topo`` and ``start``, and 4x weights on
    rank 0."""
    weights = tmp / "weights.json"
    save_weights(weights, {e: (4.0 if p == 0 else 1.0)
                           for e, p in load_assignment(start).items()})
    return ["--mesh", str(mesh), "--topo", str(topo),
            "--assignment", str(start)], weights


def _rebalance(tmp: Path, method) -> Path:
    args, weights = _start(tmp)
    out = tmp / f"rebalance-{method}"
    _cli("rebalance", *args, "--level", "0", "--method", method,
         "--weights", str(weights), "--out", str(out))
    return out


def _tet_partition(tmp: Path) -> tuple[Path, Path]:
    """The tet box mesh file and its rcb partition on ``topo_2x2x2``."""
    tmp.mkdir(parents=True, exist_ok=True)
    mesh = tmp / "tet_box.json"
    save_mesh(mesh, tet_box(6, 6, 6))
    out = tmp / "tet-partition-rcb"
    _cli("partition", "--mesh", str(mesh), "--topo",
         str(FIXTURES / "topo_2x2x2.json"), "--method", "rcb", "--out", str(out))
    return mesh, out


def _tet_rebalance(tmp: Path) -> Path:
    mesh, start = _tet_partition(tmp)
    args, weights = _start_args(tmp, mesh, start / "assignment.json")
    out = tmp / "tet-rebalance-rcb"
    _cli("rebalance", *args, "--level", "0", "--method", "rcb",
         "--weights", str(weights), "--out", str(out))
    return out


NODE_CORE_CASES = [(m, lv) for m in ("rcb", "graph") for lv in ("0", "1")]


def _node_core_partition(tmp: Path) -> tuple[Path, Path, Path]:
    """The tet box mesh file, a [node 2, core 4] topology file and the
    box's rcb partition on it."""
    tmp.mkdir(parents=True, exist_ok=True)
    mesh, topo = tmp / "tet_box.json", tmp / "node2core4.json"
    save_mesh(mesh, tet_box(6, 6, 6))
    save_topology(topo, build_topology([["node", 2], ["core", 4]]))
    out = tmp / "tet-node-core-partition-rcb"
    _cli("partition", "--mesh", str(mesh), "--topo", str(topo),
         "--method", "rcb", "--out", str(out))
    return mesh, topo, out


def _node_core_rebalance(tmp: Path, method, level) -> Path:
    """A rebalance from ``_node_core_partition`` with rank 0's elements
    weighted 4: the boundary faces travel through the carve, the team split
    and the migration on four ranks a node."""
    mesh, topo, start = _node_core_partition(tmp)
    args, weights = _start_args(tmp, mesh, start / "assignment.json", topo)
    out = tmp / f"tet-node-core-rebalance-{method}-l{level}"
    _cli("rebalance", *args, "--level", level, "--method", method,
         "--weights", str(weights), "--out", str(out))
    return out


def _metrics(tmp: Path) -> Path:
    args, _ = _start(tmp)
    out = tmp / "metrics"
    _cli("metrics", *args, "--out", str(out))
    return out


FRAC_PARTITION_CASES = [(m, a) for m in ("rcb", "graph") for a in ("1", "2")]
FRAC_REBALANCE_CASES = [(m, lv) for m in ("rcb", "graph") for lv in ("0", "1")]


def _shuffled_doc(path: Path, kind: str, rows: list) -> Path:
    rows = list(rows)
    random.Random(5).shuffle(rows)
    dump_doc(path, kind, rows)
    return path


def _frac_weights(tmp: Path) -> Path:
    """Weights 1 + (e % 7) / 10 for the demo mesh, in shuffled order."""
    tmp.mkdir(parents=True, exist_ok=True)
    return _shuffled_doc(tmp / "frac-weights.json", "weights",
                         [[e, 1 + (e % 7) / 10] for e in range(512)])


def _frac_start(tmp: Path) -> list[str]:
    """The start partition's assignment rewritten in shuffled order, and
    the fractional weights, as arguments."""
    start = _partition(tmp, *START) / "assignment.json"
    shuffled = _shuffled_doc(tmp / "shuffled-assignment.json", "assignment",
                             sorted(load_assignment(start).items()))
    return ["--mesh", str(MESH), "--topo", str(FIXTURES / f"{START[0]}.json"),
            "--assignment", str(shuffled),
            "--weights", str(_frac_weights(tmp))]


def _frac_partition(tmp: Path, method, approach) -> Path:
    out = tmp / f"frac-partition-{method}-a{approach}"
    _cli("partition", "--mesh", str(MESH), "--topo",
         str(FIXTURES / f"{START[0]}.json"), "--method", method,
         "--approach", approach, "--weights", str(_frac_weights(tmp)),
         "--out", str(out))
    return out


def _frac_rebalance(tmp: Path, method, level) -> Path:
    out = tmp / f"frac-rebalance-{method}-l{level}"
    _cli("rebalance", *_frac_start(tmp), "--level", level, "--method", method,
         "--out", str(out))
    return out


def _frac_metrics(tmp: Path) -> Path:
    out = tmp / "frac-metrics"
    _cli("metrics", *_frac_start(tmp), "--out", str(out))
    return out


def _timing(tmp: Path) -> Path:
    """Timing blocks of interleaved ids (e % 8), listed out of order, each
    timed at a non-integer number of seconds."""
    tmp.mkdir(parents=True, exist_ok=True)
    timing = tmp / "timing.json"
    save_timing(timing, [([e for e in range(511, -1, -1) if e % 8 == g],
                          0.5 + g / 7) for g in (3, 0, 6, 1, 7, 2, 5, 4)])
    return timing


def _timing_partition(tmp: Path) -> Path:
    """A partition from the ``_timing`` blocks."""
    out = tmp / "timing-partition"
    _cli("partition", "--mesh", str(MESH), "--topo",
         str(FIXTURES / f"{START[0]}.json"), "--timing", str(_timing(tmp)),
         "--out", str(out))
    return out


@pytest.mark.parametrize("topo, method, approach", PARTITION_CASES)
def test_partition_outputs(tmp_path, topo, method, approach):
    out = _partition(tmp_path, topo, method, approach)
    assert _digests(out) == GOLDEN[_case_name(topo, method, approach)]


@pytest.mark.parametrize("method", ["rcb", "graph"])
def test_rebalance_outputs(tmp_path, method):
    assert _digests(_rebalance(tmp_path, method)) == \
        GOLDEN[f"rebalance-{method}"]


def test_metrics_outputs(tmp_path):
    assert _digests(_metrics(tmp_path)) == GOLDEN["metrics"]


def test_tet_partition_outputs(tmp_path):
    assert _digests(_tet_partition(tmp_path)[1]) == GOLDEN["tet-partition-rcb"]


def test_tet_rebalance_outputs(tmp_path):
    assert _digests(_tet_rebalance(tmp_path)) == GOLDEN["tet-rebalance-rcb"]


@pytest.mark.parametrize("method, approach", FRAC_PARTITION_CASES)
def test_frac_partition_outputs(tmp_path, method, approach):
    assert _digests(_frac_partition(tmp_path, method, approach)) == \
        GOLDEN[f"frac-partition-{method}-a{approach}"]


@pytest.mark.parametrize("method, level", FRAC_REBALANCE_CASES)
def test_frac_rebalance_outputs(tmp_path, method, level):
    assert _digests(_frac_rebalance(tmp_path, method, level)) == \
        GOLDEN[f"frac-rebalance-{method}-l{level}"]


def test_frac_metrics_outputs(tmp_path):
    assert _digests(_frac_metrics(tmp_path)) == GOLDEN["frac-metrics"]


def test_timing_partition_outputs(tmp_path):
    assert _digests(_timing_partition(tmp_path)) == GOLDEN["timing-partition"]


def test_node_core_partition_outputs(tmp_path):
    assert _digests(_node_core_partition(tmp_path)[2]) == \
        GOLDEN["tet-node-core-partition-rcb"]


@pytest.mark.parametrize("method, level", NODE_CORE_CASES)
def test_node_core_rebalance_outputs(tmp_path, method, level):
    assert _digests(_node_core_rebalance(tmp_path, method, level)) == \
        GOLDEN[f"tet-node-core-rebalance-{method}-l{level}"]


# Each verb with the documents it reads and its other arguments.
ONE_LINE_CASES = {
    "partition": ("partition", ("--mesh", "--topo"), ()),
    "rebalance-weights": ("rebalance", ("--mesh", "--topo", "--assignment",
                                        "--weights"), ("--level", "0")),
    "rebalance-timing": ("rebalance", ("--mesh", "--topo", "--assignment",
                                       "--timing"), ("--level", "0")),
    "metrics-weights": ("metrics", ("--mesh", "--topo", "--assignment",
                                    "--weights"), ()),
}


@pytest.mark.parametrize("case", sorted(ONE_LINE_CASES))
def test_one_line_inputs_give_the_same_outputs(tmp_path, case):
    # A document on one line takes the json.load read path: every output
    # must match the run on the documents as the package writes them.
    verb, flags, extra = ONE_LINE_CASES[case]
    args, weights = _start(tmp_path)
    written = dict(zip(args[::2], map(Path, args[1::2])))
    written.update({"--weights": weights, "--timing": _timing(tmp_path)})
    one_line = {}
    for flag, path in written.items():
        one_line[flag] = tmp_path / f"one-line-{path.name}"
        one_line[flag].write_text(json.dumps(json.loads(path.read_text())))
    outs = []
    for name, docs in (("written", written), ("one-line", one_line)):
        outs.append(tmp_path / name)
        _cli(verb, *(a for f in flags for a in (f, str(docs[f]))), *extra,
             "--out", str(outs[-1]))
    assert _digests(outs[0]) == _digests(outs[1])


def _all_digests() -> dict[str, dict[str, str]]:
    with tempfile.TemporaryDirectory() as tmp, \
            open(os.devnull, "w") as quiet:
        tmp = Path(tmp)
        stdout, sys.stdout = sys.stdout, quiet
        try:
            out = {_case_name(*c): _digests(_partition(tmp / "p", *c))
                   for c in PARTITION_CASES}
            for method in ("rcb", "graph"):
                out[f"rebalance-{method}"] = _digests(
                    _rebalance(tmp / method, method))
            out["metrics"] = _digests(_metrics(tmp / "m"))
            out["tet-partition-rcb"] = _digests(_tet_partition(tmp / "tp")[1])
            out["tet-rebalance-rcb"] = _digests(_tet_rebalance(tmp / "tr"))
            for m, a in FRAC_PARTITION_CASES:
                out[f"frac-partition-{m}-a{a}"] = _digests(
                    _frac_partition(tmp / f"fp{m}{a}", m, a))
            for m, lv in FRAC_REBALANCE_CASES:
                out[f"frac-rebalance-{m}-l{lv}"] = _digests(
                    _frac_rebalance(tmp / f"fr{m}{lv}", m, lv))
            out["frac-metrics"] = _digests(_frac_metrics(tmp / "fm"))
            out["timing-partition"] = _digests(_timing_partition(tmp / "tm"))
            out["tet-node-core-partition-rcb"] = _digests(
                _node_core_partition(tmp / "ncp")[2])
            for m, lv in NODE_CORE_CASES:
                out[f"tet-node-core-rebalance-{m}-l{lv}"] = _digests(
                    _node_core_rebalance(tmp / f"nc{m}{lv}", m, lv))
        finally:
            sys.stdout = stdout
    return out


# Recorded with the printer below.
GOLDEN: dict[str, dict[str, str]] = {
    'partition-topo_2x2-rcb-a1': {
        'assignment.json':
            'd2b122ad963745312e541385eb633c420d0c7b8d27e3a13b78fc8042e0b967ed',
        'levels.csv':
            'dec0ee8f66157098af493890d4c8d289ef6db28ac64e7198e9cb748b013ff106',
        'part-0000.json':
            '75213763bdd6db45e4f3df0c3c2a48c88640fbb859f6c6642d021a3b37e27fbb',
        'part-0001.json':
            '39a820ad7fb07eccf1d3a6ec0b382e83c239086aeb101691f44a1ea2bd8ee9c4',
        'part-0002.json':
            'ada4898c81f57a7e8489740e3c7baa4532f714b2675ebb054a80e7c986a55f28',
        'part-0003.json':
            'd3171059e4ce68a349e87c623fed4c40d035d57c8e2f6fbe18f7c855f70582b0',
        'report.json':
            'd0106efe28a54661fbdb45d138587dad27702dbfb76b28ff3ea2a130d2c714f9',
    },
    'partition-topo_2x2-rcb-a2': {
        'assignment.json':
            'd2b122ad963745312e541385eb633c420d0c7b8d27e3a13b78fc8042e0b967ed',
        'levels.csv':
            '24f0ab391fdbf8d759251fdeb8517fbeffea48327d73070b0c8391397a41233d',
        'part-0000.json':
            '75213763bdd6db45e4f3df0c3c2a48c88640fbb859f6c6642d021a3b37e27fbb',
        'part-0001.json':
            '39a820ad7fb07eccf1d3a6ec0b382e83c239086aeb101691f44a1ea2bd8ee9c4',
        'part-0002.json':
            'ada4898c81f57a7e8489740e3c7baa4532f714b2675ebb054a80e7c986a55f28',
        'part-0003.json':
            'd3171059e4ce68a349e87c623fed4c40d035d57c8e2f6fbe18f7c855f70582b0',
        'report.json':
            '08544f935f8b67d7d09c4e96d09fbe959f953b5a909c2103f23f9b110a0a2b4c',
    },
    'partition-topo_2x2-graph-a1': {
        'assignment.json':
            '710f6fffdafb866b9f6538adb8f1d867abc733cd0de5322b5c0cbe9b6d029e9b',
        'levels.csv':
            '17dc6f670fc8493994dc6829b46fa6e8e2c2ef18830cdc95d06ae27af4756d5b',
        'part-0000.json':
            '9e28f5a13faa46b56e226879b65c9278aa463ed36d9394e04ffee24e44f3ce20',
        'part-0001.json':
            '14ce7a31991d09a52bd87b93ff4fbb0f9ae10196657ba5a783aceeae9b4fb3b8',
        'part-0002.json':
            '64cf1165fc98fdaed1938c40aa399c37ea945f4058500d4a39efd2473402585b',
        'part-0003.json':
            '4e71067d89804df9bd1b77e8412a07ad99d20413e08422736251e9a476b8ba55',
        'report.json':
            'df8eb2780be135118e352ccab1e034e3994f4d4bd18b1fbd6af749ad06c7d053',
    },
    'partition-topo_2x2-graph-a2': {
        'assignment.json':
            '710f6fffdafb866b9f6538adb8f1d867abc733cd0de5322b5c0cbe9b6d029e9b',
        'levels.csv':
            '26fc9e26219ffae5d7de3b0fe0b4d7bdcbcf8feed4a1c2f5cc6617e3b1a07951',
        'part-0000.json':
            '9e28f5a13faa46b56e226879b65c9278aa463ed36d9394e04ffee24e44f3ce20',
        'part-0001.json':
            '14ce7a31991d09a52bd87b93ff4fbb0f9ae10196657ba5a783aceeae9b4fb3b8',
        'part-0002.json':
            '64cf1165fc98fdaed1938c40aa399c37ea945f4058500d4a39efd2473402585b',
        'part-0003.json':
            '4e71067d89804df9bd1b77e8412a07ad99d20413e08422736251e9a476b8ba55',
        'report.json':
            '816d5ea9bf27f2ecdc452313da6e2f3d2fcbc4bda3471167c1d05c5d44f3121f',
    },
    'partition-topo_2x2-graph,rcb-a1': {
        'assignment.json':
            'ef6f05e59618583c4093f9384c7769daaa7d2029b4d0730dd29d680b223c7e69',
        'levels.csv':
            'f2dbfc01379c1c9236e98f96f280c15e28c438b025a47869ea94dfe192945865',
        'part-0000.json':
            '075ec7115d4d1ed6edae4272b791baccdc9d3ebb92beb88e4e479ca2bec24880',
        'part-0001.json':
            'b66d4203a81a2734587204a7cc9e0ac51c6e35cbff2e5e6959366a4a07fb3d0f',
        'part-0002.json':
            '0af7ce5d130ee766c985365f3fd91467569c7fcbb9bfb8563d9475dc0e9202b7',
        'part-0003.json':
            'cb82612ebd1535395b2f763e7a75b1ccd43248fd94c6f08346828c86f4301a4e',
        'report.json':
            'c0d1ef876a6ef7cc933bff3507c444e5f5dcae37bd0c709ab7aa420889b2128b',
    },
    'partition-topo_2x2-graph,rcb-a2': {
        'assignment.json':
            'ef6f05e59618583c4093f9384c7769daaa7d2029b4d0730dd29d680b223c7e69',
        'levels.csv':
            '705b3a24f4cfcd45b580a6bfd24cff9fd1bf215ab4bf552bac1df67a4fb4dd87',
        'part-0000.json':
            '075ec7115d4d1ed6edae4272b791baccdc9d3ebb92beb88e4e479ca2bec24880',
        'part-0001.json':
            'b66d4203a81a2734587204a7cc9e0ac51c6e35cbff2e5e6959366a4a07fb3d0f',
        'part-0002.json':
            '0af7ce5d130ee766c985365f3fd91467569c7fcbb9bfb8563d9475dc0e9202b7',
        'part-0003.json':
            'cb82612ebd1535395b2f763e7a75b1ccd43248fd94c6f08346828c86f4301a4e',
        'report.json':
            'be28dd02c1c06e7bf2d7befde74fb97334d00c8735d78ac4f5488c3ab0a84895',
    },
    'partition-topo_2x2x2-rcb-a1': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'levels.csv':
            'a3317d1b695fd0cfa3d9baffdc3df0557ae0f1b7c066f986acc0de119069d32c',
        'part-0000.json':
            '4f8f607a0040a1c91e5898c3c1dc50bc3da7f06f02656be61952bc5c0e08cdb9',
        'part-0001.json':
            '7c60835852c097096416ffaf46632ef98e5f0beba3f19bb9bf9122fe5cf0fc7e',
        'part-0002.json':
            'a4222b64ff43fdb405f5f040fab2523a6d788187412f877bfd439f0ac979e912',
        'part-0003.json':
            '94630b54f58271ffc5a95efe677d94419393eec5236cd1b58b6ff7f95a5a4e42',
        'part-0004.json':
            '9b15c9d57495ac877d637c43d100c74b383aed136d13697ebc8dbc473e9c2ef8',
        'part-0005.json':
            '976c270402c076e555183105192db3d5f8b3caa8f9e389eee81a1fbf3ec836a8',
        'part-0006.json':
            '1ada67345aaafc9c7e204d4dc372dffe310eaed9e8b7572351ad4e36325be11e',
        'part-0007.json':
            '856a3d8770b8a5c98f28a64f045ec714f3d0d096e3340878cd695de7226abae2',
        'report.json':
            'a6abc09311a5ce517a6230d61ac77b0174b526828511da51fb6b2e6fc80d7955',
    },
    'partition-topo_2x2x2-rcb-a2': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'levels.csv':
            '0c30b866ac1227142ef9dface37d2e831fb2c9ceb8a104275dcad948fb691613',
        'part-0000.json':
            '4f8f607a0040a1c91e5898c3c1dc50bc3da7f06f02656be61952bc5c0e08cdb9',
        'part-0001.json':
            '7c60835852c097096416ffaf46632ef98e5f0beba3f19bb9bf9122fe5cf0fc7e',
        'part-0002.json':
            'a4222b64ff43fdb405f5f040fab2523a6d788187412f877bfd439f0ac979e912',
        'part-0003.json':
            '94630b54f58271ffc5a95efe677d94419393eec5236cd1b58b6ff7f95a5a4e42',
        'part-0004.json':
            '9b15c9d57495ac877d637c43d100c74b383aed136d13697ebc8dbc473e9c2ef8',
        'part-0005.json':
            '976c270402c076e555183105192db3d5f8b3caa8f9e389eee81a1fbf3ec836a8',
        'part-0006.json':
            '1ada67345aaafc9c7e204d4dc372dffe310eaed9e8b7572351ad4e36325be11e',
        'part-0007.json':
            '856a3d8770b8a5c98f28a64f045ec714f3d0d096e3340878cd695de7226abae2',
        'report.json':
            '416f929ba23e4e42387d82e4d85cdb9848af1feb0e31b42524428c426a2f9696',
    },
    'partition-topo_2x2x2-graph-a1': {
        'assignment.json':
            'dc78febfb037bd6a13fd8b0f6e9153ee2fffcacd23c668a998325907874bf278',
        'levels.csv':
            '5c4867603c97987d511a185377e8561650cb35ad0f70a2af9b12e7ebf4dc57ea',
        'part-0000.json':
            '02fd2bd338a649afc82c1d3cbe8a8ad14446cb31efc83155824cb094d24a2020',
        'part-0001.json':
            '1432f980e29ffab1cfa8f7841d3bb40baa28c36886a328843451050d85f975df',
        'part-0002.json':
            'f44acee3b572b8bc731ffb3f71e94f31474dfcb3563732dbf06a5d4fff3b98ad',
        'part-0003.json':
            '0bab417c510df215553b0efd73ad7442816159c83632c6fbc9782937a1140f3a',
        'part-0004.json':
            '60158802449133bd54c3e824379b174c8b38c2869c94e5b07472e6f218cbddc8',
        'part-0005.json':
            'a2921c79a694cae81fe3cbea04109155654c4552badabfd0cf4e0b4a3d9f166c',
        'part-0006.json':
            '318b43688e0747738e4adeeb87e20bb4e2ac6124afbdb9835607533a4d439d14',
        'part-0007.json':
            '4b797911d8befaffb2d16b88ad4addc3ded773df93a70362a51cf310a2aa6801',
        'report.json':
            'd4d9cf800297d8a0b5cea18f1ee1538c9d3cf6b057b4731f9c967458dd0aa3f4',
    },
    'partition-topo_2x2x2-graph-a2': {
        'assignment.json':
            'dc78febfb037bd6a13fd8b0f6e9153ee2fffcacd23c668a998325907874bf278',
        'levels.csv':
            '28d2e36f00b8d25cefacde7af58e5dd59f74ccc576323e15a79bc3c8aed2a52a',
        'part-0000.json':
            '02fd2bd338a649afc82c1d3cbe8a8ad14446cb31efc83155824cb094d24a2020',
        'part-0001.json':
            '1432f980e29ffab1cfa8f7841d3bb40baa28c36886a328843451050d85f975df',
        'part-0002.json':
            'f44acee3b572b8bc731ffb3f71e94f31474dfcb3563732dbf06a5d4fff3b98ad',
        'part-0003.json':
            '0bab417c510df215553b0efd73ad7442816159c83632c6fbc9782937a1140f3a',
        'part-0004.json':
            '60158802449133bd54c3e824379b174c8b38c2869c94e5b07472e6f218cbddc8',
        'part-0005.json':
            'a2921c79a694cae81fe3cbea04109155654c4552badabfd0cf4e0b4a3d9f166c',
        'part-0006.json':
            '318b43688e0747738e4adeeb87e20bb4e2ac6124afbdb9835607533a4d439d14',
        'part-0007.json':
            '4b797911d8befaffb2d16b88ad4addc3ded773df93a70362a51cf310a2aa6801',
        'report.json':
            'd0c8d6ce29d2dc52c4b41708df87ff6e9d358eda40b5d5c58bede5a9ce9f6100',
    },
    'partition-topo_2x2x2-graph,rcb-a1': {
        'assignment.json':
            'eebcd5386a78e5a96d3b2ceca2b2bd94cb6b0a43ebb8cf60bcd69d18c1fef7d5',
        'levels.csv':
            '8d5efb06502de755d6b86c51b7d6b525f623bb685b0d22d20c9a40e33b9f2cf6',
        'part-0000.json':
            'e47c13e617c8a0a04e7cbaec50789c9a3574cf31c78d513f69747887e6eae084',
        'part-0001.json':
            '8df5c06de7df5fd6fa27b13ba131460cbdd2c61b7f5afa4ad7dd25ee4d2f0dab',
        'part-0002.json':
            'a0898a2d61944e9a569ce5223fcd4615de4cf8a95dd2573c4a5606eba5bdbb84',
        'part-0003.json':
            '34fbf1fcdbc39888bb100b5117f8ebd468d44dc7612a92107a816d9cb35726d8',
        'part-0004.json':
            '91207bf5b970038c1c945f58ac0f57138b622dd4901f4fb199030a8506db5a8c',
        'part-0005.json':
            'dd12f366aee907fc367e44d92276449abbbc93a6871334961057f51cc72889bb',
        'part-0006.json':
            'bd1eaae6f8c84bd9e7ffce4f1866e17fb69d637e41f82af7b529aee88829be38',
        'part-0007.json':
            'a7d4ff10fbf262a8c62d975caa71cb0baea0270291fd13a8a4274f1a40953645',
        'report.json':
            '7a7453366e65bf33d43bad658f2d662626e94a97dd4941f50a624772a0d8e0d1',
    },
    'partition-topo_2x2x2-graph,rcb-a2': {
        'assignment.json':
            'eebcd5386a78e5a96d3b2ceca2b2bd94cb6b0a43ebb8cf60bcd69d18c1fef7d5',
        'levels.csv':
            'b92a013c29b8bf31e27b3de60b804cb2d242bc61d77a1df1c22ef1a5e5bb0219',
        'part-0000.json':
            'e47c13e617c8a0a04e7cbaec50789c9a3574cf31c78d513f69747887e6eae084',
        'part-0001.json':
            '8df5c06de7df5fd6fa27b13ba131460cbdd2c61b7f5afa4ad7dd25ee4d2f0dab',
        'part-0002.json':
            'a0898a2d61944e9a569ce5223fcd4615de4cf8a95dd2573c4a5606eba5bdbb84',
        'part-0003.json':
            '34fbf1fcdbc39888bb100b5117f8ebd468d44dc7612a92107a816d9cb35726d8',
        'part-0004.json':
            '91207bf5b970038c1c945f58ac0f57138b622dd4901f4fb199030a8506db5a8c',
        'part-0005.json':
            'dd12f366aee907fc367e44d92276449abbbc93a6871334961057f51cc72889bb',
        'part-0006.json':
            'bd1eaae6f8c84bd9e7ffce4f1866e17fb69d637e41f82af7b529aee88829be38',
        'part-0007.json':
            'a7d4ff10fbf262a8c62d975caa71cb0baea0270291fd13a8a4274f1a40953645',
        'report.json':
            '9f7c7cacf0e330a97a4a43c7a812efb6fde1424819bf4a23beb80e0c44da38c8',
    },
    'rebalance-rcb': {
        'assignment.json':
            'f827683837f24051ad65508a48fd52a8ba8af32eafd4019245b0cbafb7390586',
        'balance.csv':
            '5c2dca82240906e3d4bb7b4dc05fe81b5734626f7ef77b94f9a8a2567393b8b5',
        'levels.csv':
            '412e14edd343f831e1c0796ec3235143f412c87de827f99f9b0b75b6501d864f',
        'report.json':
            '029f18831214c68ef28f951d3a15a5a461f17b91273007fbb58a48249fe970ff',
    },
    'rebalance-graph': {
        'assignment.json':
            '1a28c9b421f9b231fcdb4be104403f6a386157c91609e5327abb6c95a4ccce0c',
        'balance.csv':
            'a52d659f05e7f524decddc57b5f78d99c13258d568910dd5dfaf5430c399eb81',
        'levels.csv':
            'c4a118358d868902c7e78caf06e2773d69394c653de84f51bc5991efc41a8b6e',
        'report.json':
            '2c6de94e3bcb08439cfdab373c278ec658de24f75057d6e110e71a40fec06080',
    },
    'metrics': {
        'levels.csv':
            '909150f3bd98eee854734f3cb6e03e978f2e2bc2e8ac5dcb198f562797a0b640',
        'report.json':
            '845943d68c9f911d9b12d819dcca7a70bf0cfb88633369b6d091e04ef15f7df7',
    },
    'tet-partition-rcb': {
        'assignment.json':
            'c08b4ed95d0c5ecc95f9c73b43d8ecab3c29a6b6e9898b21929fca248e959fa3',
        'levels.csv':
            'bc38b086394b8ab61e5ffcf15f65bc3b6dd433ec2ee8c53d5e7364f255e5f111',
        'part-0000.json':
            'fbe1880d446485a20ae4a6cc4000cbf10b516496c624eadcfc19f1fe60f60736',
        'part-0001.json':
            '03fc319ade926d6d8c2d325fac3a9ace17e13c4c080848d0486fc514030f51ac',
        'part-0002.json':
            'd3bc0fa3bf9a2fed65e2dc8c6a18b55b18f29b243b51f2aefb821895c33a502a',
        'part-0003.json':
            '349c2ec084a29fa202d60aa770a9687d55dcb9c71889a625f73cf99e56ac94b9',
        'part-0004.json':
            'aa32716c17df7ad8bb67f957eca1e7b439876dd77fae92e38d4ce8d872270986',
        'part-0005.json':
            '4d04da5fd867366d0b74d4c3badd05abc2442d47ab53bdce6f70a9d8418b363f',
        'part-0006.json':
            '9fe18699091f2b5aa7efcb7500bcc158713573f3a7507d4b25763c7ebd557702',
        'part-0007.json':
            '626823075a292178433b046310b0c70ab054be0618b80f98d4913492c241ace3',
        'report.json':
            '8aaaab055d94c41add4c98a4b0e752d517c481e599c8edfb0b8a637a467358e7',
    },
    'tet-rebalance-rcb': {
        'assignment.json':
            '6df1f3456d570c4ea876792ac8442c5d7ed8192daeec67774b41ae361fc551e9',
        'balance.csv':
            '3e96fe4c21331d1e7d24c228440a75cb3509702469cf3d321bc2493e88fde3e1',
        'levels.csv':
            '794faad7730b76022fca5bc29123f0aaa9ef0704acbebc944eaefd9322dfda05',
        'report.json':
            '17c025abe0003be9cf1563171950139af97a710187c64bf3a802325b22b876b2',
    },
    'frac-partition-rcb-a1': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'levels.csv':
            '47bd9236da98a3efc1ce37ea508bb6be61e85e419d8a376f8afe4a9da0c88b2b',
        'part-0000.json':
            '4f8f607a0040a1c91e5898c3c1dc50bc3da7f06f02656be61952bc5c0e08cdb9',
        'part-0001.json':
            '7c60835852c097096416ffaf46632ef98e5f0beba3f19bb9bf9122fe5cf0fc7e',
        'part-0002.json':
            'a4222b64ff43fdb405f5f040fab2523a6d788187412f877bfd439f0ac979e912',
        'part-0003.json':
            '94630b54f58271ffc5a95efe677d94419393eec5236cd1b58b6ff7f95a5a4e42',
        'part-0004.json':
            '9b15c9d57495ac877d637c43d100c74b383aed136d13697ebc8dbc473e9c2ef8',
        'part-0005.json':
            '976c270402c076e555183105192db3d5f8b3caa8f9e389eee81a1fbf3ec836a8',
        'part-0006.json':
            '1ada67345aaafc9c7e204d4dc372dffe310eaed9e8b7572351ad4e36325be11e',
        'part-0007.json':
            '856a3d8770b8a5c98f28a64f045ec714f3d0d096e3340878cd695de7226abae2',
        'report.json':
            '5b5cbee2dfb30d26137ca0e2ad99cd4af7975b901b221c31e1396af64f425f1c',
    },
    'frac-partition-rcb-a2': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'levels.csv':
            '7d68703cbec7c595a0a3a4d3e1f99f0875b4ab8ec12cabab53d2beb1e929a653',
        'part-0000.json':
            '4f8f607a0040a1c91e5898c3c1dc50bc3da7f06f02656be61952bc5c0e08cdb9',
        'part-0001.json':
            '7c60835852c097096416ffaf46632ef98e5f0beba3f19bb9bf9122fe5cf0fc7e',
        'part-0002.json':
            'a4222b64ff43fdb405f5f040fab2523a6d788187412f877bfd439f0ac979e912',
        'part-0003.json':
            '94630b54f58271ffc5a95efe677d94419393eec5236cd1b58b6ff7f95a5a4e42',
        'part-0004.json':
            '9b15c9d57495ac877d637c43d100c74b383aed136d13697ebc8dbc473e9c2ef8',
        'part-0005.json':
            '976c270402c076e555183105192db3d5f8b3caa8f9e389eee81a1fbf3ec836a8',
        'part-0006.json':
            '1ada67345aaafc9c7e204d4dc372dffe310eaed9e8b7572351ad4e36325be11e',
        'part-0007.json':
            '856a3d8770b8a5c98f28a64f045ec714f3d0d096e3340878cd695de7226abae2',
        'report.json':
            '0916b993da50be39200db6c642a60720ae0fe54c12def5b5958ab050f2a4411d',
    },
    'frac-partition-graph-a1': {
        'assignment.json':
            '13965df6c9f755280989232c8d3bc368c5fda2b8d53b7afb8f0285c16d5326a0',
        'levels.csv':
            'e43df99f83bda72c5f741a16497b4e721625e938ecf19861cba9839fae90f1a7',
        'part-0000.json':
            'd076a2e87ab902040a14f744be760f65c4312990dcc44eb032e758f89c1b7955',
        'part-0001.json':
            '582d29f9cebb8ac4e8c1eae9dc0234e29ecd859fbd5a3aa137abf39d863259f2',
        'part-0002.json':
            '3830b4d380fd9f8ec01b033698088118f579466880783ff90d3f6489620fc952',
        'part-0003.json':
            '8a3b5a51e0b13131e8ba2642fd9ae3f33c63a78d0d7700fe3fe7c05b7b76fbd8',
        'part-0004.json':
            '3b15852ba820b7989d527b480866260eb522d3481f683c783dd3e1c68a8836a0',
        'part-0005.json':
            '0b2c73017f918771afde7ed10e8ad0516ef13d6c499f82b5d3b9c4fcaec48107',
        'part-0006.json':
            '97373c58882aef24bae6b5f570746ab30ddb8a8aa63d5ea385997d07608c0239',
        'part-0007.json':
            'f9151b2b6798151206250a961db606c64e4a2992553d9e72d34dfc9be1cc7fbf',
        'report.json':
            '629f182218aafeea2cc312b3e2342472269210220658e7e24f1e2a8b6b2f5029',
    },
    'frac-partition-graph-a2': {
        'assignment.json':
            '13965df6c9f755280989232c8d3bc368c5fda2b8d53b7afb8f0285c16d5326a0',
        'levels.csv':
            '498f7390dc704119de08a7433f5a5afe3ff4b7d3177e56ebe6b2575774f39378',
        'part-0000.json':
            'd076a2e87ab902040a14f744be760f65c4312990dcc44eb032e758f89c1b7955',
        'part-0001.json':
            '582d29f9cebb8ac4e8c1eae9dc0234e29ecd859fbd5a3aa137abf39d863259f2',
        'part-0002.json':
            '3830b4d380fd9f8ec01b033698088118f579466880783ff90d3f6489620fc952',
        'part-0003.json':
            '8a3b5a51e0b13131e8ba2642fd9ae3f33c63a78d0d7700fe3fe7c05b7b76fbd8',
        'part-0004.json':
            '3b15852ba820b7989d527b480866260eb522d3481f683c783dd3e1c68a8836a0',
        'part-0005.json':
            '0b2c73017f918771afde7ed10e8ad0516ef13d6c499f82b5d3b9c4fcaec48107',
        'part-0006.json':
            '97373c58882aef24bae6b5f570746ab30ddb8a8aa63d5ea385997d07608c0239',
        'part-0007.json':
            'f9151b2b6798151206250a961db606c64e4a2992553d9e72d34dfc9be1cc7fbf',
        'report.json':
            '34361cc2a625015f596d37e38926ed568e4af35db30142391efcb30be58df41b',
    },
    'frac-rebalance-rcb-l0': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'balance.csv':
            '84687c2a2655819f888123b68783f8c665af30a3a6fbac29304530c4b4234ddf',
        'levels.csv':
            'cd10f734f8abe9d765055373e0c1ebc2bd699ecc10731011b650844afea2b09a',
        'report.json':
            '0e265445a52e40a241bab81f76249e6015b3e3521c826991655eb527c787ba29',
    },
    'frac-rebalance-rcb-l1': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'balance.csv':
            '84687c2a2655819f888123b68783f8c665af30a3a6fbac29304530c4b4234ddf',
        'levels.csv':
            '59d887aec06ea4eba309db65a34a5f5369f3a91b8bc97db8918f66cffefdf618',
        'report.json':
            '989796deec244a3cca4c1fafff9882fc7e34cbf5d52511a6be547dcf7127999d',
    },
    'frac-rebalance-graph-l0': {
        'assignment.json':
            '2875be837ac2e48ae3029904322a44eafe15b9f4382967d16b2dd258f8181687',
        'balance.csv':
            'ad9d27fe4d1a374dcc877085f0fb2af25b072a727ee59f62490500fdc38769df',
        'levels.csv':
            '027b2e131bcb8cfcb1a92c04aac400da7042ea0d36053ebac270443c132b51c5',
        'report.json':
            'ce36aa1410cb26d825a5dee086a1ecb691e569bcf4469ceaca67fa77dd20b375',
    },
    'frac-rebalance-graph-l1': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'balance.csv':
            '84687c2a2655819f888123b68783f8c665af30a3a6fbac29304530c4b4234ddf',
        'levels.csv':
            '07674b6e67fd9431598872147d706971bf162d1a3039e06126de80dafffa6139',
        'report.json':
            '752ba247b4226e31e9c70a2901fb2a10494ef40cdb9cc7c127216f48b10e0194',
    },
    'frac-metrics': {
        'levels.csv':
            '909150f3bd98eee854734f3cb6e03e978f2e2bc2e8ac5dcb198f562797a0b640',
        'report.json':
            '2ecdd638644905e71d7fb1ac786fd8a7fce6243f4e8f99b904f5c01a3b903928',
    },
    'timing-partition': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'levels.csv':
            '7d68703cbec7c595a0a3a4d3e1f99f0875b4ab8ec12cabab53d2beb1e929a653',
        'part-0000.json':
            '4f8f607a0040a1c91e5898c3c1dc50bc3da7f06f02656be61952bc5c0e08cdb9',
        'part-0001.json':
            '7c60835852c097096416ffaf46632ef98e5f0beba3f19bb9bf9122fe5cf0fc7e',
        'part-0002.json':
            'a4222b64ff43fdb405f5f040fab2523a6d788187412f877bfd439f0ac979e912',
        'part-0003.json':
            '94630b54f58271ffc5a95efe677d94419393eec5236cd1b58b6ff7f95a5a4e42',
        'part-0004.json':
            '9b15c9d57495ac877d637c43d100c74b383aed136d13697ebc8dbc473e9c2ef8',
        'part-0005.json':
            '976c270402c076e555183105192db3d5f8b3caa8f9e389eee81a1fbf3ec836a8',
        'part-0006.json':
            '1ada67345aaafc9c7e204d4dc372dffe310eaed9e8b7572351ad4e36325be11e',
        'part-0007.json':
            '856a3d8770b8a5c98f28a64f045ec714f3d0d096e3340878cd695de7226abae2',
        'report.json':
            '930e7ac65f4849a14dcc3ab8565da96926d251eb619f8d33fc9ce0ff5a859ba7',
    },
    'tet-node-core-partition-rcb': {
        'assignment.json':
            'c08b4ed95d0c5ecc95f9c73b43d8ecab3c29a6b6e9898b21929fca248e959fa3',
        'levels.csv':
            'b63b05de4ff0a505cced619d19691bbf2049c7288c60eee1ad9bc9a998381efc',
        'part-0000.json':
            'fbe1880d446485a20ae4a6cc4000cbf10b516496c624eadcfc19f1fe60f60736',
        'part-0001.json':
            '03fc319ade926d6d8c2d325fac3a9ace17e13c4c080848d0486fc514030f51ac',
        'part-0002.json':
            'd3bc0fa3bf9a2fed65e2dc8c6a18b55b18f29b243b51f2aefb821895c33a502a',
        'part-0003.json':
            '349c2ec084a29fa202d60aa770a9687d55dcb9c71889a625f73cf99e56ac94b9',
        'part-0004.json':
            'aa32716c17df7ad8bb67f957eca1e7b439876dd77fae92e38d4ce8d872270986',
        'part-0005.json':
            '4d04da5fd867366d0b74d4c3badd05abc2442d47ab53bdce6f70a9d8418b363f',
        'part-0006.json':
            '9fe18699091f2b5aa7efcb7500bcc158713573f3a7507d4b25763c7ebd557702',
        'part-0007.json':
            '626823075a292178433b046310b0c70ab054be0618b80f98d4913492c241ace3',
        'report.json':
            'b1ec90008e027074b2b7f77a1492c9d760eeaec82ea8a40e4d33f368faa016f1',
    },
    'tet-node-core-rebalance-rcb-l0': {
        'assignment.json':
            '6df1f3456d570c4ea876792ac8442c5d7ed8192daeec67774b41ae361fc551e9',
        'balance.csv':
            '3e96fe4c21331d1e7d24c228440a75cb3509702469cf3d321bc2493e88fde3e1',
        'levels.csv':
            '794faad7730b76022fca5bc29123f0aaa9ef0704acbebc944eaefd9322dfda05',
        'report.json':
            '17c025abe0003be9cf1563171950139af97a710187c64bf3a802325b22b876b2',
    },
    'tet-node-core-rebalance-rcb-l1': {
        'assignment.json':
            'c08b4ed95d0c5ecc95f9c73b43d8ecab3c29a6b6e9898b21929fca248e959fa3',
        'balance.csv':
            'c65269caf6eb7652f9d6a65ec66cbd55683bc3daccfbf8d3b6c32927f2f2d6e7',
        'levels.csv':
            'f8a53520c6f55ecf1f11324b281281963d879e7f360599b5331291adc3fdebff',
        'report.json':
            'bef22a4bdd00da88c1b8499fbec0ec727cef6c1d486a6b3efa5068fbf9bb55a2',
    },
    'tet-node-core-rebalance-graph-l0': {
        'assignment.json':
            '7070d24119e84b4f23d5f7652234a353261fc144efb9405900862238dafe27e1',
        'balance.csv':
            'd759c8866754bcd203e519d254e5fdd19e26bc9a35b5e21858348b0699c0b51c',
        'levels.csv':
            '8a424b869cc972b296224cc8589c9035765977643e5c24f283ebd6de2eca79ab',
        'report.json':
            'e03106b081ca236a2f6147052bbb2db34df67cde02aaa4fbe917243efe4e5e61',
    },
    'tet-node-core-rebalance-graph-l1': {
        'assignment.json':
            'c08b4ed95d0c5ecc95f9c73b43d8ecab3c29a6b6e9898b21929fca248e959fa3',
        'balance.csv':
            'c65269caf6eb7652f9d6a65ec66cbd55683bc3daccfbf8d3b6c32927f2f2d6e7',
        'levels.csv':
            'f8a53520c6f55ecf1f11324b281281963d879e7f360599b5331291adc3fdebff',
        'report.json':
            '6fd65371f0eb0b5541b4ae100066eebde10d2c6ec220d7242aaff4951cbcd710',
    },
}


if __name__ == "__main__":
    for case, files in _all_digests().items():
        print(f"    {case!r}: {{")
        for name, digest in files.items():
            print(f"        {name!r}:\n            {digest!r},")
        print("    },")
