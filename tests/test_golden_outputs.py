"""Byte-identity of every CLI output on the shipped fixtures.

Each case runs one verb on ``fixtures/demo_mesh.json`` (or, for the
``tet-*`` cases, on ``meshgen.tet_box(6, 6, 6)`` written to a temporary
file) with ``--no-timestamp`` and compares the sha256 of every file it
writes with the digest recorded in ``GOLDEN``.  The ``frac-*`` cases use
weights with a fractional part, read from files written in shuffled
order: their sums depend on the order the weights are added in, which the
4.0/1.0 weights of the other cases cannot show.  A refactor must leave all
of them unchanged; a change that is meant to alter an output updates its
digests in the same commit and says why.

To print the digests of the code under test (for example to record them):

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest

from hierpart.cli import main
from hierpart.formats import (dump_doc, load_assignment, save_mesh,
                              save_timing, save_weights)
from hierpart.meshgen import tet_box

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


def _start_args(tmp: Path, mesh: Path, start: Path) -> tuple[list[str], Path]:
    """Arguments naming ``mesh`` and ``start``, and 4x weights on rank 0."""
    weights = tmp / "weights.json"
    save_weights(weights, {e: (4.0 if p == 0 else 1.0)
                           for e, p in load_assignment(start).items()})
    return ["--mesh", str(mesh), "--topo", str(FIXTURES / f"{START[0]}.json"),
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


def _timing_partition(tmp: Path) -> Path:
    """A partition from timing blocks of interleaved ids (e % 8), listed
    out of order, each timed at a non-integer number of seconds."""
    tmp.mkdir(parents=True, exist_ok=True)
    timing = tmp / "timing.json"
    save_timing(timing, [([e for e in range(511, -1, -1) if e % 8 == g],
                          0.5 + g / 7) for g in (3, 0, 6, 1, 7, 2, 5, 4)])
    out = tmp / "timing-partition"
    _cli("partition", "--mesh", str(MESH), "--topo",
         str(FIXTURES / f"{START[0]}.json"), "--timing", str(timing),
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
        finally:
            sys.stdout = stdout
    return out


# Recorded with the printer below.
GOLDEN: dict[str, dict[str, str]] = {
    'partition-topo_2x2-rcb-a1': {
        'assignment.json':
            'd2b122ad963745312e541385eb633c420d0c7b8d27e3a13b78fc8042e0b967ed',
        'levels.csv':
            '1bc3681aa919d2e20120ee8e53e71d2159cab6ea1ca90255308fa86c0fc1f30d',
        'part-0000.json':
            '75213763bdd6db45e4f3df0c3c2a48c88640fbb859f6c6642d021a3b37e27fbb',
        'part-0001.json':
            '39a820ad7fb07eccf1d3a6ec0b382e83c239086aeb101691f44a1ea2bd8ee9c4',
        'part-0002.json':
            'ada4898c81f57a7e8489740e3c7baa4532f714b2675ebb054a80e7c986a55f28',
        'part-0003.json':
            'd3171059e4ce68a349e87c623fed4c40d035d57c8e2f6fbe18f7c855f70582b0',
        'report.json':
            'd148ad19bf1188af10de7ca4519516b4a3d0f737a7c51a1be6adbda155a22ef5',
    },
    'partition-topo_2x2-rcb-a2': {
        'assignment.json':
            'd2b122ad963745312e541385eb633c420d0c7b8d27e3a13b78fc8042e0b967ed',
        'levels.csv':
            '7c0287baadf92005f9c24b9fe91e0528b8db4e67054205d2443e9432c31d9d2d',
        'part-0000.json':
            '75213763bdd6db45e4f3df0c3c2a48c88640fbb859f6c6642d021a3b37e27fbb',
        'part-0001.json':
            '39a820ad7fb07eccf1d3a6ec0b382e83c239086aeb101691f44a1ea2bd8ee9c4',
        'part-0002.json':
            'ada4898c81f57a7e8489740e3c7baa4532f714b2675ebb054a80e7c986a55f28',
        'part-0003.json':
            'd3171059e4ce68a349e87c623fed4c40d035d57c8e2f6fbe18f7c855f70582b0',
        'report.json':
            'a385d40b8c60a641e703e9c9d90c3c712ea87432b72689e874c972aa855aacea',
    },
    'partition-topo_2x2-graph-a1': {
        'assignment.json':
            '710f6fffdafb866b9f6538adb8f1d867abc733cd0de5322b5c0cbe9b6d029e9b',
        'levels.csv':
            '2133d10433e8ff95d052a4a8bc107e3338b6bab9a909a81efe7029b39c267908',
        'part-0000.json':
            '9e28f5a13faa46b56e226879b65c9278aa463ed36d9394e04ffee24e44f3ce20',
        'part-0001.json':
            '14ce7a31991d09a52bd87b93ff4fbb0f9ae10196657ba5a783aceeae9b4fb3b8',
        'part-0002.json':
            '64cf1165fc98fdaed1938c40aa399c37ea945f4058500d4a39efd2473402585b',
        'part-0003.json':
            '4e71067d89804df9bd1b77e8412a07ad99d20413e08422736251e9a476b8ba55',
        'report.json':
            '0c3ab69b89700f89ad86960d50526d915a0d4863fc5426e56d3c1682715b5de6',
    },
    'partition-topo_2x2-graph-a2': {
        'assignment.json':
            '710f6fffdafb866b9f6538adb8f1d867abc733cd0de5322b5c0cbe9b6d029e9b',
        'levels.csv':
            'e66eb4bfbf9618bb75ef42467c28c997cbc797979d7bef7228e84020c05c058b',
        'part-0000.json':
            '9e28f5a13faa46b56e226879b65c9278aa463ed36d9394e04ffee24e44f3ce20',
        'part-0001.json':
            '14ce7a31991d09a52bd87b93ff4fbb0f9ae10196657ba5a783aceeae9b4fb3b8',
        'part-0002.json':
            '64cf1165fc98fdaed1938c40aa399c37ea945f4058500d4a39efd2473402585b',
        'part-0003.json':
            '4e71067d89804df9bd1b77e8412a07ad99d20413e08422736251e9a476b8ba55',
        'report.json':
            '8ec023609f714910f2ffb4d651efe465f509422716daddb83c961d18ce560147',
    },
    'partition-topo_2x2-graph,rcb-a1': {
        'assignment.json':
            'ef6f05e59618583c4093f9384c7769daaa7d2029b4d0730dd29d680b223c7e69',
        'levels.csv':
            '4fd85f879df07c4ecdcbaf5515b1b5ad452ddcfcb108c3d13bae5310575f83f0',
        'part-0000.json':
            '075ec7115d4d1ed6edae4272b791baccdc9d3ebb92beb88e4e479ca2bec24880',
        'part-0001.json':
            'b66d4203a81a2734587204a7cc9e0ac51c6e35cbff2e5e6959366a4a07fb3d0f',
        'part-0002.json':
            '0af7ce5d130ee766c985365f3fd91467569c7fcbb9bfb8563d9475dc0e9202b7',
        'part-0003.json':
            'cb82612ebd1535395b2f763e7a75b1ccd43248fd94c6f08346828c86f4301a4e',
        'report.json':
            '9bca04aa968c151822480ac477340234e519f05f8badf34820b6572e9e8dc2b1',
    },
    'partition-topo_2x2-graph,rcb-a2': {
        'assignment.json':
            'ef6f05e59618583c4093f9384c7769daaa7d2029b4d0730dd29d680b223c7e69',
        'levels.csv':
            '0acec1c789a83feb604b0f11e12a712ef2130e31fd73b80caddcb81a0a400197',
        'part-0000.json':
            '075ec7115d4d1ed6edae4272b791baccdc9d3ebb92beb88e4e479ca2bec24880',
        'part-0001.json':
            'b66d4203a81a2734587204a7cc9e0ac51c6e35cbff2e5e6959366a4a07fb3d0f',
        'part-0002.json':
            '0af7ce5d130ee766c985365f3fd91467569c7fcbb9bfb8563d9475dc0e9202b7',
        'part-0003.json':
            'cb82612ebd1535395b2f763e7a75b1ccd43248fd94c6f08346828c86f4301a4e',
        'report.json':
            '4d36883a7312149b6f3303670c48e81fcc9ac3467233d78d59a5caf43e4094a5',
    },
    'partition-topo_2x2x2-rcb-a1': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'levels.csv':
            'b68673d7dcfdc5928993e73fad4683e9a6181d8a9d77624fbfc666974795888e',
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
            'bddac88c8ffbc10dacb6dce8e6b8e6bd44575cd4dbecfa4f1adff03df0e467ee',
    },
    'partition-topo_2x2x2-rcb-a2': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'levels.csv':
            '04ee793deb888ee14d30bf2f125afc829e1afe3ac80f8f7c2a4de483788b6d14',
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
            'c15da2e7931706c7d7ede74b97ce5e63935402589a18f4bc76add93d2f4720c4',
    },
    'partition-topo_2x2x2-graph-a1': {
        'assignment.json':
            'dc78febfb037bd6a13fd8b0f6e9153ee2fffcacd23c668a998325907874bf278',
        'levels.csv':
            '25972f64593f3763c42258fce9a0daf5d15869f1e1445ab9221c21653ba77d61',
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
            '975a89193b0d104aec75d0c6cd44284d8dbd8fa273a0671182cad01dbb7d2667',
    },
    'partition-topo_2x2x2-graph-a2': {
        'assignment.json':
            'dc78febfb037bd6a13fd8b0f6e9153ee2fffcacd23c668a998325907874bf278',
        'levels.csv':
            'f02797da97eaaa16ad959416e51f9e6407b08d92da8fa4d8793837fe240205db',
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
            'ce9869bc529ac79f5ad4072d8aa09681fa411a732a61118303c12b000152a226',
    },
    'partition-topo_2x2x2-graph,rcb-a1': {
        'assignment.json':
            'eebcd5386a78e5a96d3b2ceca2b2bd94cb6b0a43ebb8cf60bcd69d18c1fef7d5',
        'levels.csv':
            'f5e70c79583b2c6ed786b8970e81a019e70492d18f6f656079bb05f4200a6469',
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
            'af271fa6fb8295290b03fbca50742bd6fba319e30e399bdd07bb71c2b9528f1e',
    },
    'partition-topo_2x2x2-graph,rcb-a2': {
        'assignment.json':
            'eebcd5386a78e5a96d3b2ceca2b2bd94cb6b0a43ebb8cf60bcd69d18c1fef7d5',
        'levels.csv':
            'ddbc38e4c8bdb7eda762603a13ff5768a5dac9cb695b4d071c913539ec3a8949',
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
            '67bb43cec4005f4a3f3f3d9d75a5d00d2cbd9aa78c28c14f90eb22b3a21b51a1',
    },
    'rebalance-rcb': {
        'assignment.json':
            'f827683837f24051ad65508a48fd52a8ba8af32eafd4019245b0cbafb7390586',
        'balance.csv':
            '5c2dca82240906e3d4bb7b4dc05fe81b5734626f7ef77b94f9a8a2567393b8b5',
        'levels.csv':
            '6e80f517e64dcb3df7864681b874bb91b3b5ca978b188e08f7e4f0857e17b747',
        'report.json':
            'afc08bf909ef11dc7d2195ce8d9b87d1ce13ae9195de24e1799570fd5943aa1d',
    },
    'rebalance-graph': {
        'assignment.json':
            'bf213f0db99c44f53ac8a4528adcabaafd9a41682ba0ce6de1aed6f41c37e4ce',
        'balance.csv':
            'a52d659f05e7f524decddc57b5f78d99c13258d568910dd5dfaf5430c399eb81',
        'levels.csv':
            '53813214cc6eacac334788add7a61081e6e2d56da64057ebf56e09bc74291d69',
        'report.json':
            '49a338fa4bcce655d5886cd161a58d46e6f70e56ddbd62bb6c13a4c018a6aa2e',
    },
    'metrics': {
        'levels.csv':
            '4f8ce93bc30cf7d7ce89e6527ffb3b32986e1c5ddf426cb75b0373095dab1838',
        'report.json':
            'd83c0a35af2d7587ce748fc3f3d85967095a3a50e09b59e52fa3e452848f3dc4',
    },
    'tet-partition-rcb': {
        'assignment.json':
            'c08b4ed95d0c5ecc95f9c73b43d8ecab3c29a6b6e9898b21929fca248e959fa3',
        'levels.csv':
            '83988de5d193220b793bf9a1b23cce8f53aed2886aaffe78564f0746409426ad',
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
            '36172422f86bb2fb5664301444d8947c27a8d5453306c5f7b7962a623edf55f3',
    },
    'tet-rebalance-rcb': {
        'assignment.json':
            '6df1f3456d570c4ea876792ac8442c5d7ed8192daeec67774b41ae361fc551e9',
        'balance.csv':
            '3e96fe4c21331d1e7d24c228440a75cb3509702469cf3d321bc2493e88fde3e1',
        'levels.csv':
            '189a929a5a30d45d5c0928f7fb38b3ecbf7c23eba0161654312c0280433a9fcd',
        'report.json':
            '9b3ac18f0a41716f8d20c58dbb2128ef2378277dba2e09688cb169be60affd30',
    },
    'frac-partition-rcb-a1': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'levels.csv':
            '3838aafd34690f452c841fceefddacb98744ba1a52badc97e54323c3687497f1',
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
            '720aef1a55dbf5725713d99098f9c6e9a3943204d279b8c1fc9c466496d8e01e',
    },
    'frac-partition-rcb-a2': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'levels.csv':
            '0e097652d504a48cda51c54fac50377327885f2554413c72e73360faaa11c343',
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
            '75dbdd1a0460c517c48cff5a89a76e0209b50f6996f0cdc8813bf17d5c8924e7',
    },
    'frac-partition-graph-a1': {
        'assignment.json':
            '13965df6c9f755280989232c8d3bc368c5fda2b8d53b7afb8f0285c16d5326a0',
        'levels.csv':
            '336e70124cdf9ff40a313e28cd4a2d1fb790c099f6d6153058cf81ddd2863229',
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
            'caef73cfcae6a5f273a2ac9e9dc2e1f7bb64bd9b7b800acf3a29f63bfcbea80b',
    },
    'frac-partition-graph-a2': {
        'assignment.json':
            '13965df6c9f755280989232c8d3bc368c5fda2b8d53b7afb8f0285c16d5326a0',
        'levels.csv':
            'f84b2e0beae86d43bb3d7d7173b15952a26574a4d3bdb189802134ef7114eb6f',
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
            '748d475df8d38a9251ff5b66597bc218589a77c4efb4d92d72801c989e1179db',
    },
    'frac-rebalance-rcb-l0': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'balance.csv':
            '84687c2a2655819f888123b68783f8c665af30a3a6fbac29304530c4b4234ddf',
        'levels.csv':
            '8ec46afdaf0f85e8d6de382dd56d8e182a2b6bbcde468a36dc6bcb16aeab8cb9',
        'report.json':
            '515ee7797a30129559d074608d9260636bb060940941d455d3de92acf2b2ed8d',
    },
    'frac-rebalance-rcb-l1': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'balance.csv':
            '84687c2a2655819f888123b68783f8c665af30a3a6fbac29304530c4b4234ddf',
        'levels.csv':
            'f829f1160cb8a3ffb7b14daab4b0401a9c93226e03f1d700df3ad2f7d8d8650d',
        'report.json':
            '0a5da00d1164174e991d9814fe70d8366e7e028e492cf6e7884da11065d220e5',
    },
    'frac-rebalance-graph-l0': {
        'assignment.json':
            '9b305eca4dc0a18764b318fbebfba3412760bb67eadd4f9c862e85563fd361ee',
        'balance.csv':
            '1433574a856920e99a3d70e8702fc2ab2d2bd3a50adb3770d72d41c243bd8c68',
        'levels.csv':
            'f3eeb5766abc82734c2c1e975a503f38040478229217041194488252eea3724b',
        'report.json':
            'dbf3ddb6b07e62cb2a0520f1ef20f55e2fda3f6ca1da7114b92781142a912653',
    },
    'frac-rebalance-graph-l1': {
        'assignment.json':
            'f7f59dfc831c044fa4d434f1c53471432a94c88044cbe52f36661da5706cf5d3',
        'balance.csv':
            'dfa51e59eda49f74795f86a3d9c8070c778afef239bf25b72a81507c08f6b723',
        'levels.csv':
            '3ea2ecdcd62e986afa7c93a37196eba9dc3fb7a5eeb9f7b79afe1df8fcabe682',
        'report.json':
            'e9d673ff8b1cdd50ce7f8c4788d3910976b6c957bce9be8115f621a48f1c201e',
    },
    'frac-metrics': {
        'levels.csv':
            '4f8ce93bc30cf7d7ce89e6527ffb3b32986e1c5ddf426cb75b0373095dab1838',
        'report.json':
            '91708cc1319ae6b1f4d65e41979a6a6e775ddb243c420e21b0f6fe0a46c6c44c',
    },
    'timing-partition': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'levels.csv':
            '0e097652d504a48cda51c54fac50377327885f2554413c72e73360faaa11c343',
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
            '51dc417b3e8cd29d47e43622ae6baf3e36aca25a1895ac6e3d8ce972989169ba',
    },
}


if __name__ == "__main__":
    for case, files in _all_digests().items():
        print(f"    {case!r}: {{")
        for name, digest in files.items():
            print(f"        {name!r}:\n            {digest!r},")
        print("    },")
