"""Byte-identity of the CLI's outputs for fixed seeds and arguments.

The witness files are 8-320 KB, so only their sha256 digests are stored.
A digest that changes means the random stream, the float arithmetic or the
JSON layout changed; any of those must be a deliberate, recorded decision.
The search digests are those of stream version 2 (``search.STREAM_VERSION``).
"""

import hashlib
import json
from pathlib import Path

import pytest

from offswitch_lab import cli
from offswitch_lab.jsonio import witness_from_jsonable
from offswitch_lab.voi import replay_witness

GOLDEN_WITNESSES = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "witnesses.json"

SEARCH_DIGESTS = {
    "reu:power:2": (32, "868363d78afeb7e139b0ab91d0b29ed5ddd03bf76550179d04bbd092fee52a0d"),
    "gamma:2": (7, "ef5d4a3ac6f2a65d76dd1cdd134f3c0ec430882c23226c40891bb8b012312ba6"),
    "faulty:complement:0.5": (152, "137810524062673a44b2327ca19d172c8752dda810541b62f7c54933f841714d"),
    "faulty:custom:0.5": (185, "7153c60dfb6e60f1a36db5ab26b07eb4d14ba9fea8d826d9b5894f19651b6427"),
}

# 2500 trials cross several blocks of the search's screen and end in a partial one
BLOCKS_ARGV = ("--rule", "reu:power:2", "--states", "2", "--acts", "2", "--signals", "2", "--trials", "2500", "--seed", "3")
BLOCKS_DIGEST = (120, "184f05fd236dbcb855846d06d9046e7e2916df03e6c39ebef6029447cd820227")

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
        "c81a531cf8a4646d027506b67111dd913868a0d86cbcaa56d017404af5943324",
    ),
    "gamma+faulty-complement": (
        {"kind": "gamma-maximin", "credal": {"members": [[0.3, 0.7], [0.6, 0.4]]}},
        {"kind": "faulty", "q": 0.5, "mode": "complement-conditionalization"},
        "c7664c7014bf19140c0fba4c9eeb1930c6a843edd3f638e07c183b355f1cfe45",
    ),
    # the second spellings of power k = 1 and of the eu rule, and a rule block alone
    "reu-identity+conditionalization": (
        {"kind": "reu", "risk": {"kind": "identity"}},
        {"kind": "conditionalization"},
        "c3fc5db6cf142cab23a723055bed6ee5d3d85832406b4036d33a36d17f5a0f7b",
    ),
    "eu+faulty-stay": (
        {"kind": "eu"},
        {"kind": "faulty", "q": 0.5, "mode": "stay-at-prior"},
        "3ab7eab8182d93cc5348e2555bf4938aa89b6360960d9a64e74e971c22c15765",
    ),
    "reu-power-2": (
        {"kind": "reu", "risk": {"kind": "power", "k": 2}},
        None,
        "d9ab0075729042c1f7007f21308c0bf4a08d47df62aa91936af768c931c38cba",
    ),
}

# the scenario command's table for the built-ins and the files of SCENARIO_BLOCKS
SCENARIO_TABLE_DIGESTS = {
    "alice-basic": "ea53b6ea91efceefd9322957754ae0f2df8a634617523233b15d2f146a2bbd64",
    "alice-confident": "ec3a4f3e9e4645c254558b1a1fc6649352541fd2cdd5c347b48c4a7bcb484fae",
    "alice-noisy": "b7aa273e34eb2b2ec157e34cd7d1fc796e5a127a47cd7dc48ac40798f77e140e",
    "gamma+faulty-complement": "314a2df6ccad02bd0b254cdcbe07e3a002d94c4740b42b0cf48142100c3450ff",
    "reu-table+faulty-custom": "c58e6cf9e4cce91fb5c6fc555d1350d85a37a3919c4660ddc6cd6570a1f83182",
    "reu-identity+conditionalization": "7a1f1b80476aa8c8d6530de077be7896ebeccb22352a935452be96df61445986",
    "eu+faulty-stay": "4007f09eb1285fc8a5d729d2a94f5fe60e34c62e9dc73f45ed600b0e32ab59a5",
    "reu-power-2": "51c2287aec6aece070af23b7fa3c0d085f670ce1c95f71499aaf30a3802ea54e",
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


def test_search_out_bytes_across_blocks(tmp_path, capsys):
    count, digest = BLOCKS_DIGEST
    out_path = tmp_path / "witnesses.json"
    assert cli.main(["search", *BLOCKS_ARGV, "--out", str(out_path)]) == 0
    capsys.readouterr()
    data = out_path.read_bytes()
    assert len(json.loads(data)) == count
    assert sha256(data) == digest


def test_golden_witnesses_replay_to_their_stored_voi_exactly():
    # the scalar kernels add left to right on every Python, also where sum() is
    # compensated (3.12 on), so a replay gives the stored double, not a neighbour
    entries = json.loads(GOLDEN_WITNESSES.read_text(encoding="utf-8"))
    assert len(entries) == 63
    for entry in entries:
        assert replay_witness(witness_from_jsonable(entry)) == entry["voi"], entry["trial_index"]


@pytest.mark.parametrize("argv,digest", STDOUT_DIGESTS, ids=[argv[0] for argv, _ in STDOUT_DIGESTS])
def test_command_stdout(argv, digest, capsys):
    assert cli.main(list(argv)) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == digest


def scenario_file(name, tmp_path) -> str:
    """The path of a scenario file holding the rule and updater blocks of ``name``; a None block is left out."""
    rule, updater, _ = SCENARIO_BLOCKS[name]
    blocks = {key: block for key, block in (("rule", rule), ("updater", updater)) if block is not None}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"label": "ruleful", "prior": SCENARIO_PRIOR, "epsilon": 0.1, **blocks}))
    return str(path)


@pytest.mark.parametrize("name", sorted(SCENARIO_BLOCKS))
def test_scenario_file_json_with_rule_blocks(name, tmp_path, capsys):
    assert cli.main(["scenario", scenario_file(name, tmp_path), "--json"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == SCENARIO_BLOCKS[name][2]


@pytest.mark.parametrize("name", sorted(SCENARIO_TABLE_DIGESTS))
def test_scenario_table(name, tmp_path, capsys):
    scenario = scenario_file(name, tmp_path) if name in SCENARIO_BLOCKS else name
    assert cli.main(["scenario", scenario]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == SCENARIO_TABLE_DIGESTS[name]


# one-sided priors: an empty prefer or disprefer cell, or mass exactly at zero
ONE_SIDED = {
    "uniform-positive": (
        {"kind": "uniform", "lo": 1.0, "hi": 3.0},
        "988c89974b08b0e7adfb1da5c4c82d913cfabdfbca22b69391cd744c20f40a8e",
        "12c2e7b42f90075dfb38e837e1844081752440dc7523b66cc86c54987a1ad37d",
    ),
    "uniform-negative": (
        {"kind": "uniform", "lo": -3.0, "hi": -1.0},
        "080167c705633a0a7def0ec1abc4d56c6b443566817df15c6a2a21399bca228a",
        "b51c83e33759435049779aa57871837480b66368f0cd476294460b321cc7b6f6",
    ),
    "discrete-zero-and-negative": (
        {"kind": "discrete", "atoms": [[0.0, 0.5], [-1.0, 0.5]]},
        "af459edc61c082d5a7e09cdfe5c593df93cb66254341c2061b9b50617bc4d35d",
        "5b9b29cb374276906fb137ddf327b997ac47e4ecf316aed75fd3b9875e901c47",
    ),
    "discrete-positive": (
        {"kind": "discrete", "atoms": [[0.5, 0.25], [2.0, 0.75]]},
        "a551bdac652aaed5b3614fa12692bfc68ae7b1b0e3f1a400c4de104dc513c257",
        "7f855f273893df3243e3755f1c838044128edf403b64c09135f7ef8a87cccd19",
    ),
}


@pytest.mark.parametrize("name", sorted(ONE_SIDED))
def test_one_sided_prior_scenario_and_sweep(name, tmp_path, capsys):
    prior, scenario_digest, sweep_digest = ONE_SIDED[name]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"label": "one-sided", "prior": prior, "epsilon": 0.1}))
    assert cli.main(["scenario", str(path), "--json"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == scenario_digest
    assert cli.main(["sweep", str(path), "--lo", "0", "--hi", "1", "--steps", "11"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == sweep_digest
