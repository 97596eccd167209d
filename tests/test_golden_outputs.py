"""Byte-identity of every CLI output on the shipped fixtures.

Each case runs one verb on ``fixtures/demo_mesh.json`` (or, for the
``tet-*`` cases, on ``meshgen.tet_box(6, 6, 6)`` written to a temporary
file) with ``--no-timestamp`` and compares the sha256 of every file it
writes with the digest recorded in ``GOLDEN``.  A refactor must leave all
of them unchanged; a change that is meant to alter an output updates its
digests in the same commit and says why.

To print the digests of the code under test (for example to record them):

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

import pytest

from hierpart.cli import main
from hierpart.formats import load_assignment, save_mesh, save_weights
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
        finally:
            sys.stdout = stdout
    return out


# Recorded with the printer below.
GOLDEN: dict[str, dict[str, str]] = {
    'partition-topo_2x2-rcb-a1': {
        'assignment.json':
            'd2b122ad963745312e541385eb633c420d0c7b8d27e3a13b78fc8042e0b967ed',
        'levels.csv':
            'dd2518a06785d0b74bde7953810439ae5036891b3fe474b2d2d8ed7878614fec',
        'part-0000.json':
            '75213763bdd6db45e4f3df0c3c2a48c88640fbb859f6c6642d021a3b37e27fbb',
        'part-0001.json':
            '39a820ad7fb07eccf1d3a6ec0b382e83c239086aeb101691f44a1ea2bd8ee9c4',
        'part-0002.json':
            'ada4898c81f57a7e8489740e3c7baa4532f714b2675ebb054a80e7c986a55f28',
        'part-0003.json':
            'd3171059e4ce68a349e87c623fed4c40d035d57c8e2f6fbe18f7c855f70582b0',
        'report.json':
            '3c0222681c3408af33d0c72ccf63cd5b5083f99d2dd135d442215142385013e9',
    },
    'partition-topo_2x2-rcb-a2': {
        'assignment.json':
            'd2b122ad963745312e541385eb633c420d0c7b8d27e3a13b78fc8042e0b967ed',
        'levels.csv':
            'e07ca2a1576717efe97bce5162d480fb657a67e1ab43ec1fdd4e0416c8437c44',
        'part-0000.json':
            '75213763bdd6db45e4f3df0c3c2a48c88640fbb859f6c6642d021a3b37e27fbb',
        'part-0001.json':
            '39a820ad7fb07eccf1d3a6ec0b382e83c239086aeb101691f44a1ea2bd8ee9c4',
        'part-0002.json':
            'ada4898c81f57a7e8489740e3c7baa4532f714b2675ebb054a80e7c986a55f28',
        'part-0003.json':
            'd3171059e4ce68a349e87c623fed4c40d035d57c8e2f6fbe18f7c855f70582b0',
        'report.json':
            '00ddcda9e132d7ddd68c43bb6ae1a24bb0835189c2e6b70c1483545b58236bcb',
    },
    'partition-topo_2x2-graph-a1': {
        'assignment.json':
            '710f6fffdafb866b9f6538adb8f1d867abc733cd0de5322b5c0cbe9b6d029e9b',
        'levels.csv':
            '58009237d211cd9dbdd1f472472de360380859651be125c4ef430f48c89fcc45',
        'part-0000.json':
            '9e28f5a13faa46b56e226879b65c9278aa463ed36d9394e04ffee24e44f3ce20',
        'part-0001.json':
            '14ce7a31991d09a52bd87b93ff4fbb0f9ae10196657ba5a783aceeae9b4fb3b8',
        'part-0002.json':
            '64cf1165fc98fdaed1938c40aa399c37ea945f4058500d4a39efd2473402585b',
        'part-0003.json':
            '4e71067d89804df9bd1b77e8412a07ad99d20413e08422736251e9a476b8ba55',
        'report.json':
            '395523c9ceb76299dc569db092c1ad1294f35cd4b066b55f11d91587e0aa53c9',
    },
    'partition-topo_2x2-graph-a2': {
        'assignment.json':
            '710f6fffdafb866b9f6538adb8f1d867abc733cd0de5322b5c0cbe9b6d029e9b',
        'levels.csv':
            '17a97b4d43c489021daca9acc293a3ddb7b8250556e2f78eecfa25cfe0c5febc',
        'part-0000.json':
            '9e28f5a13faa46b56e226879b65c9278aa463ed36d9394e04ffee24e44f3ce20',
        'part-0001.json':
            '14ce7a31991d09a52bd87b93ff4fbb0f9ae10196657ba5a783aceeae9b4fb3b8',
        'part-0002.json':
            '64cf1165fc98fdaed1938c40aa399c37ea945f4058500d4a39efd2473402585b',
        'part-0003.json':
            '4e71067d89804df9bd1b77e8412a07ad99d20413e08422736251e9a476b8ba55',
        'report.json':
            'f30444e5b5e3c2d030b79f6f387e8d6cf63428cfcebc806f4128418fa793580e',
    },
    'partition-topo_2x2-graph,rcb-a1': {
        'assignment.json':
            'ef6f05e59618583c4093f9384c7769daaa7d2029b4d0730dd29d680b223c7e69',
        'levels.csv':
            '26ced93217958f2aee5a284518fac703859342fa47ddeef2019f0a52b0478488',
        'part-0000.json':
            '075ec7115d4d1ed6edae4272b791baccdc9d3ebb92beb88e4e479ca2bec24880',
        'part-0001.json':
            'b66d4203a81a2734587204a7cc9e0ac51c6e35cbff2e5e6959366a4a07fb3d0f',
        'part-0002.json':
            '0af7ce5d130ee766c985365f3fd91467569c7fcbb9bfb8563d9475dc0e9202b7',
        'part-0003.json':
            'cb82612ebd1535395b2f763e7a75b1ccd43248fd94c6f08346828c86f4301a4e',
        'report.json':
            'f5f3cb1cedfbe946492bcc87275a45a6f7a6ecaa98084f3ae0394c27483b5055',
    },
    'partition-topo_2x2-graph,rcb-a2': {
        'assignment.json':
            'ef6f05e59618583c4093f9384c7769daaa7d2029b4d0730dd29d680b223c7e69',
        'levels.csv':
            '54e21dc5523a22e9fc3243c3497ac7eb87cee141300d6e195f18bbfd10326332',
        'part-0000.json':
            '075ec7115d4d1ed6edae4272b791baccdc9d3ebb92beb88e4e479ca2bec24880',
        'part-0001.json':
            'b66d4203a81a2734587204a7cc9e0ac51c6e35cbff2e5e6959366a4a07fb3d0f',
        'part-0002.json':
            '0af7ce5d130ee766c985365f3fd91467569c7fcbb9bfb8563d9475dc0e9202b7',
        'part-0003.json':
            'cb82612ebd1535395b2f763e7a75b1ccd43248fd94c6f08346828c86f4301a4e',
        'report.json':
            '287fd86cf756293939cd8dcad884ccb94d7a40d3b4010c59b4471b63f2902469',
    },
    'partition-topo_2x2x2-rcb-a1': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'levels.csv':
            '173d1550f3f3fa12c7d3630a63aabacdde045d2419953df8cfc84a64a6cdd0ea',
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
            '9b37e545d66f704b902b5f2f18196847e615336d97b5fb6167450c80c9ea34d4',
    },
    'partition-topo_2x2x2-rcb-a2': {
        'assignment.json':
            '59f50216512767ac261b945997462069dc8249df8baf68d5b1a79e9707666444',
        'levels.csv':
            'c6a1b70eaa28987b921cdf36e5fa1668683ede89635b2f3c4bb6b5679818f9a3',
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
            '169350960356e569f32312c93fdcf3241370d543fa62a02c93f7e428e3d6918f',
    },
    'partition-topo_2x2x2-graph-a1': {
        'assignment.json':
            'dc78febfb037bd6a13fd8b0f6e9153ee2fffcacd23c668a998325907874bf278',
        'levels.csv':
            '40a680a6b05c88e3f75112452594ac6a9d8f99ab412f7715c9c11522fb8e289c',
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
            '5ee2dadf1bd253453516153a653cc88649ab97da3886e93c947771053150c885',
    },
    'partition-topo_2x2x2-graph-a2': {
        'assignment.json':
            'dc78febfb037bd6a13fd8b0f6e9153ee2fffcacd23c668a998325907874bf278',
        'levels.csv':
            '4ec57225bdae1dbc0efefbf8f60407d048511ced725438eeca2fd6c1892fb005',
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
            '6efea9faf740e5b8e91c1ab9a3490860385a72094fb44995f2e3ff49fe9aebd1',
    },
    'partition-topo_2x2x2-graph,rcb-a1': {
        'assignment.json':
            'eebcd5386a78e5a96d3b2ceca2b2bd94cb6b0a43ebb8cf60bcd69d18c1fef7d5',
        'levels.csv':
            'b83c5619013185f43cadb64a427c283611797b32c4e1c402f64acf682191343f',
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
            'b3f4188dfbc316d8bba5aac32e4b73bb0b5da2c7d8118211412fb584a0e54647',
    },
    'partition-topo_2x2x2-graph,rcb-a2': {
        'assignment.json':
            'eebcd5386a78e5a96d3b2ceca2b2bd94cb6b0a43ebb8cf60bcd69d18c1fef7d5',
        'levels.csv':
            'ff5793a2e0fbbc9fb0e7af3fb4ea8f8bc8f39b3fedb4095b68235b03b82eb20e',
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
            'f128d46a895a7e74037d69654b942f1be78e2a7a56d844c950980e1e3e1432b2',
    },
    'rebalance-rcb': {
        'assignment.json':
            'f827683837f24051ad65508a48fd52a8ba8af32eafd4019245b0cbafb7390586',
        'balance.csv':
            '5c2dca82240906e3d4bb7b4dc05fe81b5734626f7ef77b94f9a8a2567393b8b5',
        'levels.csv':
            'cbf6eb6888f3ba5a12f5e06d29b330b7010260529daca54b87325ff8c6738405',
        'report.json':
            'ec0b7124bbfa7b0a695bae0f3de11e2c01ce2e9f1c8bcb1be335dd9fab73fe92',
    },
    'rebalance-graph': {
        'assignment.json':
            'bf213f0db99c44f53ac8a4528adcabaafd9a41682ba0ce6de1aed6f41c37e4ce',
        'balance.csv':
            'a52d659f05e7f524decddc57b5f78d99c13258d568910dd5dfaf5430c399eb81',
        'levels.csv':
            'd3aa6efee6284a1103cd80d80b0e205fe8ce4efbb0f9875d1864674a6ed2df82',
        'report.json':
            'cf7d2318dec7e4b6cba1e6037361a5a253d55059e34a6dd1599f4a2afbe13159',
    },
    'metrics': {
        'levels.csv':
            '0a507e7c96bea2e264966de554b6bc05a87fa6d02ea84753cb5f80f162593eb0',
        'report.json':
            '97892dc7241bc360aed027334254a642c6cd1e6dc8be6464053be33279f31687',
    },
    'tet-partition-rcb': {
        'assignment.json':
            'c08b4ed95d0c5ecc95f9c73b43d8ecab3c29a6b6e9898b21929fca248e959fa3',
        'levels.csv':
            '965e13e16064b00bdbcb5d4cbbc7a05c89cbcd9e2debe7e2467c616b76017d32',
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
            '6845c00b7eea1e7e46be75c65cc366ef3682baf8567d22dd6ded7aaaf9b6cc41',
    },
    'tet-rebalance-rcb': {
        'assignment.json':
            '6df1f3456d570c4ea876792ac8442c5d7ed8192daeec67774b41ae361fc551e9',
        'balance.csv':
            '3e96fe4c21331d1e7d24c228440a75cb3509702469cf3d321bc2493e88fde3e1',
        'levels.csv':
            '1cf7fa7294b0812023e17e9fd1fc49ccf30a65a5a5cc342d37bb53cae713e305',
        'report.json':
            '8695e67b469e5eaa7b6c66ddddb23c3850ae07ecaa2b16c935f788ec6e7ce753',
    },
}


if __name__ == "__main__":
    for case, files in _all_digests().items():
        print(f"    {case!r}: {{")
        for name, digest in files.items():
            print(f"        {name!r}:\n            {digest!r},")
        print("    },")
