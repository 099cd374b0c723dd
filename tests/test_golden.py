"""Byte-identity of the CLI's outputs for fixed seeds and arguments.

The witness files are 8-320 KB, so only their sha256 digests are stored.
A digest that changes means the random stream, the float arithmetic or the
JSON layout changed; any of those must be a deliberate, recorded decision.
"""

import hashlib
import json

import pytest

from offswitch_lab import cli

SEARCH_DIGESTS = {
    "reu:power:2": (37, "28193ebfedc914674e3a184807d9cd7cf49edd8996af0f3de26b621e36524e57"),
    "gamma:2": (5, "1c2d7625f01b68117e45d375622eac36a1bae8ecaca45e70575745064c33a4a0"),
    "faulty:complement:0.5": (153, "f1b02c873b4b57c6948a0ddcc28ea4f96beda82fd3a47bf1f17b84b123a16cc7"),
    "faulty:custom:0.5": (207, "3e748ca6aeb5b52c8972f6c96c28751a97f80fb4b18c9f8cf1e6b4fc15d180fd"),
}

STDOUT_DIGESTS = [
    (("report",), "3ee01cad8724ce31f139e93c1ac8815fd4be402ac4e65a1fd8951df7606063de"),
    (("scenario", "alice-noisy", "--json"), "5f4448b099cf18b521d9b4259556f0cee82a1885a86ca7f2a8a48eaa0edec3c2"),
    (
        ("sweep", "alice-confident", "--lo", "0", "--hi", "0.05", "--steps", "51"),
        "e34e580d9f3868a42037a76d3c6a6be2896c122486627f445728c83012a0b2fb",
    ),
]

# scenario files whose rule and updater blocks put voi reports in the JSON
SCENARIO_PRIOR = {"kind": "discrete", "atoms": [[-3.0, 0.25], [1.5, 0.5], [7.0, 0.25]]}
SCENARIO_BLOCKS = {
    "reu-table+faulty-custom": (
        {"kind": "reu", "risk": {"kind": "table", "knots": [[0, 0], [0.5, 0.3], [1, 1]]}},
        {"kind": "faulty", "q": 0.25, "mode": "custom-posterior",
         "table": {"approve": [0.2, 0.8], "reject": [0.9, 0.1]}},
        "e843886a166dde8ce52b53a2abcf1a8e903e71717bbc064e311f8a294d8778b8",
    ),
    "gamma+faulty-complement": (
        {"kind": "gamma-maximin", "credal": {"members": [[0.3, 0.7], [0.6, 0.4]]}},
        {"kind": "faulty", "q": 0.5, "mode": "complement-conditionalization"},
        "c7664c7014bf19140c0fba4c9eeb1930c6a843edd3f638e07c183b355f1cfe45",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("rule", sorted(SEARCH_DIGESTS))
def test_search_out_bytes(rule, tmp_path, capsys):
    count, digest = SEARCH_DIGESTS[rule]
    out_path = tmp_path / "witnesses.json"
    code = cli.main(["search", "--rule", rule, "--trials", "500", "--seed", "3", "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    data = out_path.read_bytes()
    assert len(json.loads(data)) == count
    assert sha256(data) == digest


@pytest.mark.parametrize("argv,digest", STDOUT_DIGESTS, ids=[argv[0] for argv, _ in STDOUT_DIGESTS])
def test_command_stdout(argv, digest, capsys):
    assert cli.main(list(argv)) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == digest


@pytest.mark.parametrize("name", sorted(SCENARIO_BLOCKS))
def test_scenario_file_json_with_rule_blocks(name, tmp_path, capsys):
    rule, updater, digest = SCENARIO_BLOCKS[name]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(
        {"label": "ruleful", "prior": SCENARIO_PRIOR, "epsilon": 0.1, "rule": rule, "updater": updater}
    ))
    assert cli.main(["scenario", str(path), "--json"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == digest
