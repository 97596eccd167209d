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
            'd1baba9ee2b0c4b9e6a70805e307ec93f3ca5c3787f126978994e48343844912',
        'part-0000.json':
            '75213763bdd6db45e4f3df0c3c2a48c88640fbb859f6c6642d021a3b37e27fbb',
        'part-0001.json':
            '39a820ad7fb07eccf1d3a6ec0b382e83c239086aeb101691f44a1ea2bd8ee9c4',
        'part-0002.json':
            'ada4898c81f57a7e8489740e3c7baa4532f714b2675ebb054a80e7c986a55f28',
        'part-0003.json':
            'd3171059e4ce68a349e87c623fed4c40d035d57c8e2f6fbe18f7c855f70582b0',
        'report.json':
            '06ed1ca3cd9cce318246a1ce94487d09b0372b7181b0c40e04eef44ef426b736',
    },
    'partition-topo_2x2-rcb-a2': {
        'assignment.json':
            'd2b122ad963745312e541385eb633c420d0c7b8d27e3a13b78fc8042e0b967ed',
        'levels.csv':
            '84fb69e181c0b4b4b19d6f3f6f8fa0cd531292cad297852c86e47bc57bd4d7dd',
        'part-0000.json':
            '75213763bdd6db45e4f3df0c3c2a48c88640fbb859f6c6642d021a3b37e27fbb',
        'part-0001.json':
            '39a820ad7fb07eccf1d3a6ec0b382e83c239086aeb101691f44a1ea2bd8ee9c4',
        'part-0002.json':
            'ada4898c81f57a7e8489740e3c7baa4532f714b2675ebb054a80e7c986a55f28',
        'part-0003.json':
            'd3171059e4ce68a349e87c623fed4c40d035d57c8e2f6fbe18f7c855f70582b0',
        'report.json':
            'b3267488f8adc44e07c890102f46cc4874c5f80e5fdcf7e5d44637b5fef78d23',
    },
    'partition-topo_2x2-graph-a1': {
        'assignment.json':
            '710f6fffdafb866b9f6538adb8f1d867abc733cd0de5322b5c0cbe9b6d029e9b',
        'levels.csv':
            '4d13724d23f3d134bdcb6b4c97d2a0b68d245fe27a8c78acd081c42165d95f1f',
        'part-0000.json':
            '9e28f5a13faa46b56e226879b65c9278aa463ed36d9394e04ffee24e44f3ce20',
        'part-0001.json':
            '14ce7a31991d09a52bd87b93ff4fbb0f9ae10196657ba5a783aceeae9b4fb3b8',
        'part-0002.json':
            '64cf1165fc98fdaed1938c40aa399c37ea945f4058500d4a39efd2473402585b',
        'part-0003.json':
            '4e71067d89804df9bd1b77e8412a07ad99d20413e08422736251e9a476b8ba55',
        'report.json':
            '5697b8d613587562e1415c56862345f3061f1b5d3518bb53d5880fb496b9addb',
    },
    'partition-topo_2x2-graph-a2': {
        'assignment.json':
            '710f6fffdafb866b9f6538adb8f1d867abc733cd0de5322b5c0cbe9b6d029e9b',
        'levels.csv':
            'f7619d3d83739d877aabee6cdd421782ea7263f485b4f7d536dd8b055152bc94',
        'part-0000.json':
            '9e28f5a13faa46b56e226879b65c9278aa463ed36d9394e04ffee24e44f3ce20',
        'part-0001.json':
            '14ce7a31991d09a52bd87b93ff4fbb0f9ae10196657ba5a783aceeae9b4fb3b8',
        'part-0002.json':
            '64cf1165fc98fdaed1938c40aa399c37ea945f4058500d4a39efd2473402585b',
        'part-0003.json':
            '4e71067d89804df9bd1b77e8412a07ad99d20413e08422736251e9a476b8ba55',
        'report.json':
            '68fafe83f858bb888faf4500d35911be008d02c7f1a8b19d712df14aec1fd0e0',
    },
    'partition-topo_2x2-graph,rcb-a1': {
        'assignment.json':
            'ef6f05e59618583c4093f9384c7769daaa7d2029b4d0730dd29d680b223c7e69',
        'levels.csv':
            '91a7c6f9bd16660a5e01443acb54fd3e1187ee5304864c968a1a4cb63b541d48',
        'part-0000.json':
            '075ec7115d4d1ed6edae4272b791baccdc9d3ebb92beb88e4e479ca2bec24880',
        'part-0001.json':
            'b66d4203a81a2734587204a7cc9e0ac51c6e35cbff2e5e6959366a4a07fb3d0f',
        'part-0002.json':
            '0af7ce5d130ee766c985365f3fd91467569c7fcbb9bfb8563d9475dc0e9202b7',
        'part-0003.json':
            'cb82612ebd1535395b2f763e7a75b1ccd43248fd94c6f08346828c86f4301a4e',
        'report.json':
            '507ef341f30a78220f479f368e2db81f51af78dcca1f8441cf4d81113ef509e9',
    },
    'partition-topo_2x2-graph,rcb-a2': {
        'assignment.json':
            'ef6f05e59618583c4093f9384c7769daaa7d2029b4d0730dd29d680b223c7e69',
        'levels.csv':
            '4629946302471fb996f29d8485302316b0f07e10ca49d272de81b295f30b18d5',
        'part-0000.json':
            '075ec7115d4d1ed6edae4272b791baccdc9d3ebb92beb88e4e479ca2bec24880',
        'part-0001.json':
            'b66d4203a81a2734587204a7cc9e0ac51c6e35cbff2e5e6959366a4a07fb3d0f',
        'part-0002.json':
            '0af7ce5d130ee766c985365f3fd91467569c7fcbb9bfb8563d9475dc0e9202b7',
        'part-0003.json':
            'cb82612ebd1535395b2f763e7a75b1ccd43248fd94c6f08346828c86f4301a4e',
        'report.json':
            '0a7ac31e0fe069eb97aa537ea41b59ffa06b9512554889548215da7a870042a6',
    },
    'partition-topo_2x2x2-rcb-a1': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'levels.csv':
            '9be505edc015c9afc53f4e583641fd99bfa1aba8fe189f316a7dcffb24f5b70d',
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
            'cadeb3a93bebf164b8d5c9dbe3cf302ec706925daa3eb6de4e58d72415f13b44',
    },
    'partition-topo_2x2x2-rcb-a2': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'levels.csv':
            'a2069904841f6eab99a54b6f5fd5343d03e1c7d6dbdc3212d76cc7e7eecdbb77',
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
            '9c0cf71dc539c67e97653b66bf957e237ff58c50b3f860d9ddb1dc18b4924b0e',
    },
    'partition-topo_2x2x2-graph-a1': {
        'assignment.json':
            'dc78febfb037bd6a13fd8b0f6e9153ee2fffcacd23c668a998325907874bf278',
        'levels.csv':
            'dd3885fdb20e3b27513e5a9770105ced8a80437af095d756595e5674073269f9',
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
            '49bd08355e291bb3a7317ff486fb2425ce12a15d006123ea727119deb4b59de9',
    },
    'partition-topo_2x2x2-graph-a2': {
        'assignment.json':
            'dc78febfb037bd6a13fd8b0f6e9153ee2fffcacd23c668a998325907874bf278',
        'levels.csv':
            'a88361098d8f74c7d145d032df489101fa80d2fa1383ee721403bcd00f44fb16',
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
            '27ddf1b911397d8528dc238c0317abcf6df80362d60621528b5ea297036dde69',
    },
    'partition-topo_2x2x2-graph,rcb-a1': {
        'assignment.json':
            'eebcd5386a78e5a96d3b2ceca2b2bd94cb6b0a43ebb8cf60bcd69d18c1fef7d5',
        'levels.csv':
            '6748e731b031160a0629cb3688c496bb3a2330d07480fe64f0286d3402e42835',
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
            '11a4076c874ac5ac4f72cb13793b851052488cfeeb611b8809e57f4c914202e5',
    },
    'partition-topo_2x2x2-graph,rcb-a2': {
        'assignment.json':
            'eebcd5386a78e5a96d3b2ceca2b2bd94cb6b0a43ebb8cf60bcd69d18c1fef7d5',
        'levels.csv':
            '588cf4b00dcc74774e6ce54470db4769d9c646a6b094a3fccc2bf765dae9cb05',
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
            'c85a84197925d89663288e64eca525d3586d753aa3b3ce79ccf4d303430d13f4',
    },
    'rebalance-rcb': {
        'assignment.json':
            'f827683837f24051ad65508a48fd52a8ba8af32eafd4019245b0cbafb7390586',
        'balance.csv':
            '5c2dca82240906e3d4bb7b4dc05fe81b5734626f7ef77b94f9a8a2567393b8b5',
        'levels.csv':
            'd76268470a00bc0f8c02da94bb3c11bb9c46cb6515266b24214f4dd39c3a8547',
        'report.json':
            '3c4813ebed6702e768a53b2f2264704919e06a1a8148115e9b794853802ebe57',
    },
    'rebalance-graph': {
        'assignment.json':
            '1a28c9b421f9b231fcdb4be104403f6a386157c91609e5327abb6c95a4ccce0c',
        'balance.csv':
            'a52d659f05e7f524decddc57b5f78d99c13258d568910dd5dfaf5430c399eb81',
        'levels.csv':
            'b0a15b377522ac2c4f223b0a798527681109acc6d4d4b1f499df6f840c3e329d',
        'report.json':
            '4294f188b99ba6e02a6c1789eb295d0056c973ca391ceb31fbb77f8686cc5f1d',
    },
    'metrics': {
        'levels.csv':
            '909150f3bd98eee854734f3cb6e03e978f2e2bc2e8ac5dcb198f562797a0b640',
        'report.json':
            '70aaf28646d8af1ba562f0f465323ceea445d055540f22ac77350b492dc97c1b',
    },
    'tet-partition-rcb': {
        'assignment.json':
            'c08b4ed95d0c5ecc95f9c73b43d8ecab3c29a6b6e9898b21929fca248e959fa3',
        'levels.csv':
            'c5cf902911628fd79f496ab85862d504e1af9f4f0d4a7bea052bbf08610ff3b1',
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
            '2d96a1dabf6c5223a36df8a43d237db81b50742e92e29e7fa785b0942d77aff0',
    },
    'tet-rebalance-rcb': {
        'assignment.json':
            '6df1f3456d570c4ea876792ac8442c5d7ed8192daeec67774b41ae361fc551e9',
        'balance.csv':
            '3e96fe4c21331d1e7d24c228440a75cb3509702469cf3d321bc2493e88fde3e1',
        'levels.csv':
            '33ac96b64c2d80329a763c10e8ee66406ae690dcc7a51d701cc18c82664535c1',
        'report.json':
            'fa318387593e9f2f66acf63e2120db414e55608ca4577e4913299d67d34065b9',
    },
    'frac-partition-rcb-a1': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'levels.csv':
            '18d3ea6032e193e294b226c24a109eeedc96a7d7c0340e7c62e497ca5d3bd525',
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
            '73554a55ddb6427a9242f60bb06b4e9479fa5e276d74e01d2c1d8dbeca0210d1',
    },
    'frac-partition-rcb-a2': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'levels.csv':
            '6dd2cd0a5f73a581a91d4290aae862bd0cca1ec90f262c92d66f5e80771f14d3',
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
            '9494f61de8db852b8a96fb698c2d9f90be40245257f98ef93866c171b8c06200',
    },
    'frac-partition-graph-a1': {
        'assignment.json':
            '13965df6c9f755280989232c8d3bc368c5fda2b8d53b7afb8f0285c16d5326a0',
        'levels.csv':
            'b55b50473ac58200f7ed60791096c4589f00c9522ef8cce972bed43f4f71c0b5',
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
            '1444a2a906c4e554b6f1e3a88f8c3ec825045bbe96dfa889a58f7ae90a019091',
    },
    'frac-partition-graph-a2': {
        'assignment.json':
            '13965df6c9f755280989232c8d3bc368c5fda2b8d53b7afb8f0285c16d5326a0',
        'levels.csv':
            'e8efe739aeb4f9b103c90a7b3c5425e9af6fe63740429c87d9d5da7f9937809e',
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
            '86ffcc554af3743f08b0edd6827a717fd905e8ad179451f57ccb9aa07a777137',
    },
    'frac-rebalance-rcb-l0': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'balance.csv':
            '84687c2a2655819f888123b68783f8c665af30a3a6fbac29304530c4b4234ddf',
        'levels.csv':
            '5cdfd33d42ebd3c16352e06d240655013e89421f19be77abe49582c5c5d515b5',
        'report.json':
            '8d35a7e96abbd5c6cf0c6ebeb3f232290beebed3fd48197f458998d65eaf43b9',
    },
    'frac-rebalance-rcb-l1': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'balance.csv':
            '84687c2a2655819f888123b68783f8c665af30a3a6fbac29304530c4b4234ddf',
        'levels.csv':
            '18f8ec3d7d5dbcee6f319f00cdf800cadce5d67348669d006d687a999d7f8893',
        'report.json':
            'e603b16c370f5690ea32af993b915d0848f2c7f01e56e00cb8d64861d3ec031d',
    },
    'frac-rebalance-graph-l0': {
        'assignment.json':
            '2875be837ac2e48ae3029904322a44eafe15b9f4382967d16b2dd258f8181687',
        'balance.csv':
            'ad9d27fe4d1a374dcc877085f0fb2af25b072a727ee59f62490500fdc38769df',
        'levels.csv':
            '96a27b14823da47bb8f70ad03453c9d5caf8b5352e44b9806dc235ed1c720732',
        'report.json':
            'bfb655887604bd5deda9e682778350d15c1a00b32fb4dd77b12931c129df80c7',
    },
    'frac-rebalance-graph-l1': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'balance.csv':
            '84687c2a2655819f888123b68783f8c665af30a3a6fbac29304530c4b4234ddf',
        'levels.csv':
            '13073c4bbc9543bde37339dad64d068d7c54c679dda5ab17a08fb9f228bef63c',
        'report.json':
            'dcf1bf92ed3ce0c8f0602984999f76d2ce24e32578ad8917151fdc81a179e4bb',
    },
    'frac-metrics': {
        'levels.csv':
            '909150f3bd98eee854734f3cb6e03e978f2e2bc2e8ac5dcb198f562797a0b640',
        'report.json':
            '3d5b7d1b2c468ff3420db3cb505e320abea2346ec817a5a273005a503c50c50a',
    },
    'timing-partition': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'levels.csv':
            '6dd2cd0a5f73a581a91d4290aae862bd0cca1ec90f262c92d66f5e80771f14d3',
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
            '31b7c2763e6d32744601b6d447ca87444c4ea73cc768f6576937f7b9e97359c2',
    },
    'tet-node-core-partition-rcb': {
        'assignment.json':
            'c08b4ed95d0c5ecc95f9c73b43d8ecab3c29a6b6e9898b21929fca248e959fa3',
        'levels.csv':
            '47126218a95bd969208bb1fb1900477157b3bdb32ea607268c73208db99f6371',
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
            'b49e5fae4592dcf8cabae73f553e4d8b909a982712a4680d9c03fd247a6cbf0f',
    },
    'tet-node-core-rebalance-rcb-l0': {
        'assignment.json':
            '6df1f3456d570c4ea876792ac8442c5d7ed8192daeec67774b41ae361fc551e9',
        'balance.csv':
            '3e96fe4c21331d1e7d24c228440a75cb3509702469cf3d321bc2493e88fde3e1',
        'levels.csv':
            '33ac96b64c2d80329a763c10e8ee66406ae690dcc7a51d701cc18c82664535c1',
        'report.json':
            'fa318387593e9f2f66acf63e2120db414e55608ca4577e4913299d67d34065b9',
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
            'd4d3dd79e103aefcd894f5d9527d2a539c808674b74505149848075823e112de',
        'report.json':
            '29a862f62e72479a0b9db78e70df81729632805beb1b70ce2fa3280b068f05f8',
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
