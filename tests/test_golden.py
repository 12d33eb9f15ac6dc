"""Pinned digests of `emx` output files: every file `emx evaluate` writes,
and the tower outputs of `emx descend` and `emx compress`.

The determinism criterion compares two runs of one build; these digests
compare builds. The `evaluate` digests were computed with the per-trial
Fraction implementation of `evaluate` (sampler CDF rebuilt per trial,
captured mass and sample-mass floor summed as Fractions, every kernel
decompressed anew), so the integer-weight path with its kernel memo must
reproduce its files byte for byte. The tower digests were computed with
orderings built by sorting (digest, id) pairs, so any faster fill must
reproduce every ordering. A digest changes only when an output format,
the sampler, a learner or the ordering digest changes on purpose.
"""

import hashlib
import json
from pathlib import Path

import pytest

from emx.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Naturals, enumeration scheme, four points with coprime denominators;
# 1 - epsilon = 8/15 is the mass up to point 5, so boundary trials fail.
TANK = {
    "schema": "emx-experiment/1",
    "domain": {"kind": "naturals"},
    "scheme": {"kind": "enumeration"},
    "distribution": {
        "kind": "explicit",
        "masses": {"2": "1/3", "5": "1/5", "11": "1/7", "17": "34/105"},
    },
    "evaluate": {"m": [3, 8], "epsilon": ["7/15"], "trials": 3000, "seed": 2019,
                 "per_trial": True},
}

# Depth-1 proxy tower with a cap that most trials hit: cap errors and
# completed trials interleave in trials.csv.
CAPPED_TOWER = {
    "schema": "emx-experiment/1",
    "domain": {"kind": "finite", "size": 40},
    "tower": {"depth": 1, "seed": 5},
    "scheme": {"kind": "tower"},
    "learner": {"cap": 30},
    "distribution": {
        "kind": "explicit",
        "masses": {"1": "1/4", "6": "1/9", "13": "1/5", "22": "1/7", "30": "1/11",
                   "37": "2843/13860"},
    },
    "evaluate": {"m": [4, 7], "epsilon": ["1/3"], "trials": 2000, "seed": 7,
                 "per_trial": True},
}


@pytest.mark.parametrize(
    "config, digests",
    [
        (TANK, {
            "evaluation.csv": "a8b2f5056d9af838985671b379c870d9e1a94bafa54559adbcfbf99a94566a2b",
            "summary.txt": "a365674052d876cff98547bd1dab3c0c4a6c4998b0760ad873f99161db34a496",
            "trials.csv": "7c9f9aea0ac0fe9d7112e9abb34e669507a33408f180a0d8275e9b479015eb13",
        }),
        (CAPPED_TOWER, {
            "evaluation.csv": "0014f3ec2887de66cb01de953ff9076958793fce65c85066975839d8dd5a5802",
            "summary.txt": "1386621276c32eca1b5bb0d7fc7f8eafe478208f96af13c7f9a9777053fcf478",
            "trials.csv": "e20c2827b365a5c36c2bba3ec5f35b888bc7ea1c72e8f39bee69ea167bd8c7e6",
        }),
    ],
    ids=["tank-coprime", "capped-tower"],
)
def test_evaluate_files_match_pinned_digests(tmp_path, config, digests):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["evaluate", str(path), "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert got == digests


# Depth-2 proxy tower on 60 points: a twelve-point sample compressed
# through every level, so the trace reads orderings of all three levels.
DEPTH2_COMPRESS = {
    "schema": "emx-experiment/1",
    "domain": {"kind": "finite", "size": 60},
    "tower": {"depth": 2, "seed": 7},
    "scheme": {"kind": "tower"},
    "compress": {"points": [3, 59, 17, 42, 0, 28, 11, 50, 33, 8, 21, 46]},
}


@pytest.mark.parametrize(
    "command, config, name, digest",
    [
        ("descend", json.loads((CONFIGS / "descend_tower.json").read_text()), "descent.txt",
         "6adebcffe1611b334fbe44913a795e1c82e10c45d153a5483549c5332cd6ecd0"),
        ("compress", DEPTH2_COMPRESS, "trace.txt",
         "624a1a07b685791cfe42174ac75a713e0b110a90c4c0725027165a8218b4a07a"),
    ],
    ids=["descend-tower", "compress-depth2"],
)
def test_tower_outputs_match_pinned_digests(tmp_path, command, config, name, digest):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, str(path), "--out", str(out)]) == 0
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
