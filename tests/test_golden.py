"""Every output byte of the field commands, pinned by sha256.

The `beltrami`, `extend` and line digests were recorded from the CLI
before the dilatation engine wrote its fields block by block in place;
they hold the engine to the bits of that design on folding circle grids
(the reference grid among them), a part-period grid (the chirp-z route)
and line data.  The `carleson`, `transfer` and `probe` digests were
re-recorded when the Carleson sums became running sums in level order,
with no BLAS product on any report path: every number moved by at most
4.6e-16 relative.  So these bytes do not depend on the OpenBLAS kernel,
which `test_outputs_keep_their_bytes_on_other_cores` checks with the
small-grid report jobs, `analyze` among them.  They still follow numpy's
SIMD paths for `exp`, `log`, `sin` and `cos`, which are host-specific.
A report is hashed without its `config.out`, the one key that names the
test's own directory.
"""
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import qcheat
from qcheat.cli import run

CIRCLE = ["--n", "256", "--nx", "256", "--y-min", "0.015625", "--y-max", "2"]
PART = ["--n", "256", "--nx", "128", "--x-min", "0.1", "--x-max", "0.6",
        "--y-min", "0.015625", "--y-max", "1"]
FOLD = ["--n", "512", "--nx", "128", "--y-min", "0.015625", "--y-max", "2"]
LINE = ["--nx", "64", "--x-min", "-1", "--x-max", "1", "--y-min", "0.05", "--y-max", "0.5"]
PROBE = ["--builtin", "sine:0.5,2", "--w0", "random-trig:6,0.3,2", "--eps", "0.1",
         "--contour-nodes", "4"]


def _jobs():
    for name, grid in (("circle", CIRCLE), ("fold", FOLD), ("part", PART)):
        for datum in ("const:0", "random-trig:6,0.3,2", "step:0.3"):
            yield f"{name}-beltrami-{datum}", ["beltrami", "--builtin", datum, *grid]
        for datum in ("sine:0.3,1", "random-trig:6,0.3,2"):
            yield f"{name}-extend-{datum}", ["extend", "--builtin", datum, *grid]
        yield f"{name}-carleson", ["carleson", "--builtin", "sawtooth:0.3", *grid]
        if name != "part":  # the disk needs a field over one whole period
            yield f"{name}-transfer", ["transfer", "--builtin", "random-trig:6,0.3,2", *grid]
        yield f"{name}-probe", ["probe", *PROBE, *grid]
    # analyze builds no grid: it reads the sample count only
    yield "circle-analyze", ["analyze", "--builtin", "random-trig:6,0.3,2", "--n", "256"]
    # the reference grid: 15 blocks of at most 8 levels
    for datum in ("const:0", "sawtooth:0.3"):
        yield f"reference-beltrami-{datum}", ["beltrami", "--builtin", datum]
    yield "reference-carleson", ["carleson", "--builtin", "sawtooth:0.3"]
    yield "reference-transfer", ["transfer", "--builtin", "random-trig:8,0.2,2"]
    yield "line-beltrami", ["beltrami", "--input", "line.json", *LINE]


JOBS = dict(_jobs())

DIGESTS = {
    "circle-beltrami-const:0": {
        "beltrami.json":
            "a3e15a8af71882b88a896babe1988597272ea0c7ae13e708202574825afa84bb",
        "mu.csv":
            "0b790ba003fe338a0d31e067945702348c29c3daacfc272bb3f63fc5b18130bc",
    },
    "circle-beltrami-random-trig:6,0.3,2": {
        "beltrami.json":
            "b061181b9af9c07cc9be7ab351ae362ed5987d2cb86ec1df470032879b39beef",
        "mu.csv":
            "34f448f8d0a632f4108d3507799f665068d39609ac2776abda45442f59416555",
    },
    "circle-beltrami-step:0.3": {
        "beltrami.json":
            "10b07b7a7012b8c439b20e8924a6d83e914426bf8ed14a8a697c422d3b4676d6",
        "mu.csv":
            "27a4bd57b4e963775cb7f8400a6a85e0bbdec9480d7ead3bbb315916890b3b2d",
    },
    "circle-extend-sine:0.3,1": {
        "extend.json":
            "035f62aed0904781cb04e504bc78645a2cfb1fe315d6b94ec2a944e849f5fe0f",
        "field.csv":
            "16aa30c51ea06bfdebb4a7a64d1f4e0319e2934acb0c5f5ef78b9ee624253c71",
    },
    "circle-extend-random-trig:6,0.3,2": {
        "extend.json":
            "f8666105a2fa57595b94f055b8b10de5876cb40ca526a216adce36eeacb7e71e",
        "field.csv":
            "5913931b6981455852bfd3626909f2649da8d02211dda2a70e40e13b2756652b",
    },
    "circle-carleson": {
        "carleson.json":
            "1fd51686ebdc18283400930efbac52daf18a3ba1b23dee23483df2423c6a9e32",
    },
    "circle-transfer": {
        "transfer.json":
            "0d177899b2622d62b98445fbb73a04f1727a8abf3d025cd7b6d8f634bcce191a",
    },
    "circle-probe": {
        "probe.json":
            "46a449f96d830159a825dda5e0c0dbd6c1470bbec7d45b2374c265aeb6bb904c",
    },
    "fold-beltrami-const:0": {
        "beltrami.json":
            "2143b50e34f815e3e439ae601da900ba775f5154d839e4f2f6e3014f3280638a",
        "mu.csv":
            "05177b28f813b64da7500d45b61efa87c5c87d4feb9230f6b08ca4e9ca4263ff",
    },
    "fold-beltrami-random-trig:6,0.3,2": {
        "beltrami.json":
            "5e1481839cabe3d5f0b95d7cfa53ec22d4a84a90cb55e59c3f88dc501511061d",
        "mu.csv":
            "5ea5e5aa62213721ec496260487dc5cc337c852a09b994edb7708278ca1c62ec",
    },
    "fold-beltrami-step:0.3": {
        "beltrami.json":
            "54298b01a3778d35170e7174f4ec9149870f33faccf55b509e00a59c14ed010b",
        "mu.csv":
            "91d3b6fcc54a660c291fe10514e61c08270d2162f851f46350068995f2ec0e0d",
    },
    "fold-extend-sine:0.3,1": {
        "extend.json":
            "3e576fd2f1e1defc2bcbb770691969ba64de157bf9efeb8ea71c09a935bd45d5",
        "field.csv":
            "e4e097fd4261433428901e4f5149b336ebcbff4ce64f3d5e9d7b5a713a6b4a5b",
    },
    "fold-extend-random-trig:6,0.3,2": {
        "extend.json":
            "a867ec54412112a8650eb2578d0a727c286865f3bec284787dbcd8e8165325f3",
        "field.csv":
            "9cb98e895cfb70e01b9b4cda1aee229caa0f58c4d28ed97c8e13db54107319dd",
    },
    "fold-carleson": {
        "carleson.json":
            "453831866e1b3bf7de7b4485b0a134a0b645803930cf30c7e14ba942c5dd1eaa",
    },
    "fold-transfer": {
        "transfer.json":
            "ad7315969847b291609376a7a0cff8da609267d82d720da2ded6aa41257b5bdc",
    },
    "fold-probe": {
        "probe.json":
            "d05f5a0aa29934cd6c7d2cfed352fca0d790b9ec8402f040ae9d5d00b4021287",
    },
    "circle-analyze": {
        "analyze.json":
            "f6d9b3d4d566792b4c5940f682eae0f9b2350452e2b9f721f2d127411cad1ddb",
    },
    "part-beltrami-const:0": {
        "beltrami.json":
            "625766d3949466460f971d120a9699567c01eaf3591780f775a521212b4318fa",
        "mu.csv":
            "0b5e0f3b7f89a3a25c85f3033a6db18d7bbd883e82c45d0d02a476e2acbe62b4",
    },
    "part-beltrami-random-trig:6,0.3,2": {
        "beltrami.json":
            "aea4be997e47eb98fb32f0e6c5057dbcb925fe8539405a75fa2e5f77cbc27f23",
        "mu.csv":
            "4ebd99601a0dbf396a6e420834104daccd2fd825830d23e363361e1cf0060d2e",
    },
    "part-beltrami-step:0.3": {
        "beltrami.json":
            "90c5c91ffada819740d1281251d8879477cacc4c9c52944f218b08077c28a7f5",
        "mu.csv":
            "5b9fdf5b8b9ab3228cb1b785563867751ef505df409519945f851e951fa3448e",
    },
    "part-extend-sine:0.3,1": {
        "extend.json":
            "98095dcbfb18dc246e90488a89405cfbb9a36db8c368d3fde06178e70227a648",
        "field.csv":
            "c3e423ab387b8bcae284fe214e574dce88304a613e2d7a8c8f462ee0051bfc94",
    },
    "part-extend-random-trig:6,0.3,2": {
        "extend.json":
            "f08598d348dbccb04678025e46733b1b52f6b85ce35c3499304261b9686ad961",
        "field.csv":
            "abd4cc9fe085b94510ca3a6d37efddc8dfde827d2f57c0c44390fc59efaf7982",
    },
    "part-carleson": {
        "carleson.json":
            "8001d0a137674d0daab080937f488aa5f08b00a73e5fff3ce74fa3df3cdcf143",
    },
    "part-probe": {
        "probe.json":
            "551b9563851f0568033e29f468dad37b0cd69f1ef853d047f216aa113c782124",
    },
    "reference-beltrami-const:0": {
        "beltrami.json":
            "552c902c1d9065e1924b4d547d304115d2c815b59d5e2ede4ec3862a4ddbf42f",
        "mu.csv":
            "797bf84aa505d6fd766aa9ede97148d01a8cf44669089a2aa188f2e3ce32c79a",
    },
    "reference-beltrami-sawtooth:0.3": {
        "beltrami.json":
            "ea40b124dc565d548faa847210772fb0b6ac398102b8990ef7d5d99ff53d0e1e",
        "mu.csv":
            "15bda18298a3ebf82f2b1cd9e514ef726e092f03adc04e5b95f0f619cc35b0a4",
    },
    "reference-carleson": {
        "carleson.json":
            "51a9311f0a3bb91c926b52b28ff0f42183676a4681f48e76aa258a2ca4caead9",
    },
    "reference-transfer": {
        "transfer.json":
            "cdbf23d378f16c55017c633ca74e4589dab3cfebf4aa9cad788f92628049ea70",
    },
    "line-beltrami": {
        "beltrami.json":
            "8bf2eb81d34e3340c5bb4f28c8d79470e22aebf78970dbdc866e725f0ef50083",
        "mu.csv":
            "1b41617f37fb943b41e012336863646b2a28cd144e170ed4c4d8a018a8037a27",
    },
}


def _line_datum(path):
    """A complex datum on the line [-8, 8]: n = 1025 samples of
    0.3 sin(x) + 0.2 cos(2x / 3) + 0.1i sin(x / 2)."""
    n = 1025
    xs = [-8 + 16 * i / (n - 1) for i in range(n)]
    raw = {"domain": {"line": [-8, 8]}, "n": n,
           "values_re": [0.3 * math.sin(x) + 0.2 * math.cos(2 * x / 3) for x in xs],
           "values_im": [0.1 * math.sin(x / 2) for x in xs]}
    path.write_text(json.dumps(raw))


def _digests(out):
    got = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            report = json.loads(data)
            del report["config"]["out"]
            data = json.dumps(report, sort_keys=True, indent=2).encode()
        got[path.name] = hashlib.sha256(data).hexdigest()
    return got


@pytest.mark.parametrize("name", JOBS)
def test_outputs_keep_their_bytes(name, tmp_path, monkeypatch):
    # the datum file is named relative to the run's directory, as the
    # report echoes it
    monkeypatch.chdir(tmp_path)
    _line_datum(tmp_path / "line.json")
    out = tmp_path / "o"
    assert run(JOBS[name] + ["--out", str(out)]) == 0
    assert _digests(out) == DIGESTS[name]


def _run_digests(names, directory):
    """The digests of the outputs of the golden jobs `names`, each run into
    its own directory under `directory`."""
    got = {}
    for name in names:
        out = pathlib.Path(directory) / name
        assert run(JOBS[name] + ["--out", str(out)]) == 0
        got[name] = _digests(out)
    return got


@pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge"])
def test_outputs_keep_their_bytes_on_other_cores(coretype, tmp_path):
    # a fresh interpreter, so OpenBLAS picks the kernels of that core type;
    # no report reads BLAS, so none of its bytes may follow them
    names = [name for name in JOBS if not name.startswith("reference")
             and name.split("-")[1] in ("carleson", "transfer", "probe", "analyze")]
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(qcheat.__file__)))
    code = ("import json, sys; sys.path.insert(0, sys.argv[1])\n"
            "from test_golden import _run_digests\n"
            "print(json.dumps(_run_digests(sys.argv[3:], sys.argv[2])))")
    res = subprocess.run([sys.executable, "-c", code, here, str(tmp_path / "other"), *names],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src, OPENBLAS_CORETYPE=coretype))
    assert json.loads(res.stdout) == _run_digests(names, tmp_path / "default")
