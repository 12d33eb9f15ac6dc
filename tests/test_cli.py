import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emx
import emx.cli
from emx.analysis import SearchProblem, counting_refutes
from emx.cli import SEARCH_SUBSET_LIMIT, main
from emx.config import FIELDS


def write_config(tmp_path, payload, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def cw_verify_config(tmp_path, count=30, kind="enumeration"):
    return write_config(
        tmp_path,
        {
            "schema": "emx-experiment/1",
            "domain": {"kind": "calkin-wilf"},
            "scheme": {"kind": kind},
            "verify": {"mode": "exhaustive", "count": count},
        },
    )


def tank_eval_config(tmp_path, trials=200, per_trial=False, **evaluate):
    return write_config(
        tmp_path,
        {
            "schema": "emx-experiment/1",
            "domain": {"kind": "naturals"},
            "scheme": {"kind": "enumeration"},
            "distribution": {"kind": "uniform-range", "lo": 1, "hi": 20},
            "evaluate": {
                "m": [10],
                "epsilon": ["1/4"],
                "trials": trials,
                "seed": 42,
                "per_trial": per_trial,
                **evaluate,
            },
        },
        "tank.json",
    )


def run_cli_process(argv):
    """Run `python -m emx.cli` in a fresh interpreter on this checkout's
    package, so an uncaught exception shows as a traceback on stderr."""
    src = str(Path(emx.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "emx.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def exits_two_before_any_trial(cfg, out, monkeypatch, capsys, message):
    """`emx evaluate` on cfg exits 2 with one `config error:` line holding
    message, in process and in a fresh interpreter, without running a trial
    or creating out."""

    def no_trials(*args, **kwargs):
        raise AssertionError("evaluate ran on an invalid config")

    monkeypatch.setattr(emx.cli, "evaluate", no_trials)
    assert main(["evaluate", cfg, "--out", out]) == 2
    assert message in capsys.readouterr().err
    run = run_cli_process(["evaluate", cfg, "--out", out])
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("config error: ")
    assert run.stderr.count("\n") == 1
    assert not os.path.exists(out)


class TestVerify:
    def test_enumeration_over_rationals_is_sound(self, tmp_path, capsys):
        cfg = cw_verify_config(tmp_path)
        out = tmp_path / "out"
        assert main(["verify", cfg, "--out", str(out)]) == 0
        lines = (out / "soundness.csv").read_text().splitlines()
        assert lines[0] == "subset,status"
        assert len(lines) == 1 + 435
        assert all(line.endswith(",ok") for line in lines[1:])
        assert "435" in capsys.readouterr().out

    def test_broken_scheme_exits_one(self, tmp_path):
        cfg = cw_verify_config(tmp_path, count=10, kind="identity-eta")
        out = tmp_path / "out"
        assert main(["verify", cfg, "--out", str(out)]) == 1
        text = (out / "soundness.csv").read_text()
        assert ",violation" in text

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["verify", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_random_mode_over_tower(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "schema": "emx-experiment/1",
                "domain": {"kind": "finite", "size": 60},
                "tower": {"depth": 2, "seed": 7},
                "scheme": {"kind": "tower"},
                "verify": {"mode": "random", "samples": 50, "seed": 3},
            },
        )
        assert main(["verify", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_exhaustive_guard(self, tmp_path):
        cfg = cw_verify_config(tmp_path, count=5000)
        assert main(["verify", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_random_guard(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(
            tmp_path,
            {
                "schema": "emx-experiment/1",
                "domain": {"kind": "naturals"},
                "scheme": {"kind": "enumeration"},
                "verify": {"mode": "random", "pool": 40, "samples": 200_001},
            },
        )

        def no_subsets(*args, **kwargs):
            raise AssertionError("subsets drawn past the guard")

        monkeypatch.setattr(emx.cli, "seeded_subsets", no_subsets)
        out = tmp_path / "o"
        assert main(["verify", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "random verify of 200001 samples is above the 200000 guard" in err
        assert not out.exists()

    @pytest.mark.parametrize("domain", [{"kind": "naturals"}, {"kind": "calkin-wilf"}])
    def test_countable_pool_guard(self, tmp_path, monkeypatch, capsys, domain):
        def config(pool):
            return write_config(
                tmp_path,
                {
                    "schema": "emx-experiment/1",
                    "domain": domain,
                    "scheme": {"kind": "enumeration"},
                    "verify": {"mode": "random", "pool": pool, "samples": 20},
                },
            )

        assert main(["verify", config(1_000), "--out", str(tmp_path / "at")]) == 0
        capsys.readouterr()

        def no_subsets(*args, **kwargs):
            raise AssertionError("subsets drawn past the guard")

        monkeypatch.setattr(emx.cli, "seeded_subsets", no_subsets)
        out = tmp_path / "o"
        assert main(["verify", config(1_001), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "pool of 1001 points of a countable domain is above the 1000 guard" in err
        assert not out.exists()


class TestEvaluate:
    def test_tank_run_writes_reports(self, tmp_path):
        cfg = tank_eval_config(tmp_path, trials=300, per_trial=True)
        out = tmp_path / "out"
        assert main(["evaluate", cfg, "--out", str(out)]) == 0
        csv_lines = (out / "evaluation.csv").read_text().splitlines()
        assert csv_lines[0].startswith("m,epsilon,trials,")
        assert csv_lines[1].startswith("10,1/4,300,300,")
        summary = (out / "summary.txt").read_text()
        assert "<= 1 - epsilon" in summary
        trials = (out / "trials.csv").read_text().splitlines()
        assert len(trials) == 1 + 300

    def test_single_trial_degenerate_ci(self, tmp_path):
        cfg = tank_eval_config(tmp_path, trials=1)
        out = tmp_path / "out"
        assert main(["evaluate", cfg, "--out", str(out)]) == 0
        row = (out / "evaluation.csv").read_text().splitlines()[1]
        assert row.split(",")[3] == "1"  # completed

    def test_cap_errors_warn_but_exit_zero(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "schema": "emx-experiment/1",
                "domain": {"kind": "finite", "size": 50},
                "tower": {"depth": 1, "seed": 4},
                "scheme": {"kind": "tower"},
                "learner": {"cap": 5},
                "distribution": {"kind": "uniform-range", "lo": 0, "hi": 49},
                "evaluate": {"m": [10], "epsilon": ["1/2"], "trials": 10, "seed": 1},
            },
        )
        out = tmp_path / "out"
        assert main(["evaluate", cfg, "--out", str(out)]) == 0
        assert "reconstruction cap" in capsys.readouterr().err
        row = (out / "evaluation.csv").read_text().splitlines()[1]
        errors = int(row.split(",")[5])
        assert errors > 0

    def test_seed_override_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["evaluate", tank_eval_config(tmp_path, trials=100), "--out", str(a)]) == 0
        cfg = tank_eval_config(tmp_path, trials=100, seed=99)
        assert main(["evaluate", cfg, "--out", str(b)]) == 0
        assert (a / "evaluation.csv").read_text() != (b / "evaluation.csv").read_text()

    def test_unsound_scheme_exits_one_without_traceback(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "schema": "emx-experiment/1",
                "domain": {"kind": "naturals"},
                "scheme": {"kind": "identity-eta"},
                "distribution": {"kind": "uniform-range", "lo": 1, "hi": 10},
                "evaluate": {"m": [5], "epsilon": ["1/4"], "trials": 20, "seed": 3},
            },
        )
        run = run_cli_process(["evaluate", cfg, "--out", str(tmp_path / "out")])
        assert run.returncode == 1
        assert "Traceback" not in run.stderr
        assert run.stderr.startswith("property violation: ")
        assert run.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"trials": 0}, "evaluate.trials must be >= 1, got 0"),
            ({"confidence": 1.0}, "evaluate.confidence must be in (0, 1), got 1.0"),
            ({"confidence": 0}, "evaluate.confidence must be in (0, 1), got 0"),
            ({"m": [4, -1]}, "evaluate.m must be >= 0, got -1"),
            ({"trials": "many"}, "evaluate.trials must be an integer, got 'many'"),
            ({"epsilon": ["5/4", "-1/2"]}, "evaluate.epsilon must be in (0, 1], got -1/2"),
            ({"epsilon": ["1/4", "5/4"]}, "evaluate.epsilon must be in (0, 1], got 5/4"),
            ({"epsilon": "0"}, "evaluate.epsilon must be in (0, 1], got 0/1"),
            ({"m": [4, 4]}, "evaluate.m must hold distinct values, got 4 twice"),
            ({"epsilon": ["1/4", "2/8"]}, "evaluate.epsilon must hold distinct values, got 1/4 twice"),
            ({"m": [4, 4], "epsilon": ["1/4", "2/8"]},
             "evaluate.m must hold distinct values, got 4 twice"),
        ],
    )
    def test_bad_settings_exit_two_before_any_trial(self, tmp_path, monkeypatch, capsys,
                                                    setting, message):
        cfg = tank_eval_config(tmp_path, **setting)
        exits_two_before_any_trial(cfg, str(tmp_path / "out"), monkeypatch, capsys, message)

    @pytest.mark.parametrize(
        "sections, message",
        [
            pytest.param(
                {"distribution": {"kind": "explicit",
                                  "masses": {"1": "1/2", "01": "1/2", "2": "1/2"}}},
                "distribution.masses key '01' is not a point id",
                id="mass-keys-name-one-id-twice",
            ),
            pytest.param(
                {"distribution": {"kind": "explicit", "masses": {"1_0": "1/2", " 3": "1/2"}}},
                "distribution.masses key '1_0' is not a point id",
                id="mass-key-with-underscore",
            ),
            pytest.param(
                {"distribution": {"kind": "explicit", "masses": {"3": "1/2", " 4": "1/2"}}},
                "distribution.masses key ' 4' is not a point id",
                id="mass-key-with-space",
            ),
            pytest.param(
                {"distribution": {"kind": "explicit", "masses": {"+3": "1/2", "4": "1/2"}}},
                "distribution.masses key '+3' is not a point id",
                id="mass-key-with-plus-sign",
            ),
            pytest.param(
                {"domain": {"kind": "finite", "size": 10}, "tower": {"depth": 0, "seed": 1},
                 "scheme": {"kind": "tower"}},
                "distribution puts mass on point 10, outside the domain",
                id="uniform-range-beyond-finite-domain",
            ),
            pytest.param(
                {"domain": {"kind": "finite", "size": 10}, "tower": {"depth": 0, "seed": 1},
                 "scheme": {"kind": "tower"},
                 "evaluate": {"m": [0], "epsilon": ["1/4"], "trials": 5}},
                "distribution puts mass on point 10, outside the domain",
                id="uniform-range-beyond-finite-domain-m-0",
            ),
            pytest.param(
                {"distribution": {"kind": "explicit", "masses": {"-1": "1/2", "3": "1/2"}}},
                "distribution puts mass on point -1, outside the domain",
                id="negative-id-on-naturals",
            ),
        ],
    )
    def test_bad_distribution_exits_two_before_any_trial(self, tmp_path, monkeypatch, capsys,
                                                         sections, message):
        cfg = json.loads(Path(tank_eval_config(tmp_path)).read_text())
        cfg = write_config(tmp_path, {**cfg, **sections})
        exits_two_before_any_trial(cfg, str(tmp_path / "out"), monkeypatch, capsys, message)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_override_below_one_exits_two(self, tmp_path, monkeypatch, capsys, cap):
        cfg = json.loads(Path(tank_eval_config(tmp_path)).read_text())
        cfg = write_config(tmp_path, {**cfg, "learner": {"cap": cap}})
        exits_two_before_any_trial(cfg, str(tmp_path / "out"), monkeypatch, capsys,
                                   f"learner.cap must be >= 1, got {cap}")


class TestSearch:
    def test_unsat_exits_one(self, tmp_path, capsys):
        assert main(["search", "3", "0", "2"]) == 1
        assert "UNSAT" in capsys.readouterr().out

    def test_sat_exits_zero_with_witness(self, tmp_path, capsys):
        out = tmp_path / "w"
        assert main(["search", "3", "0", "3", "--out", str(out)]) == 0
        assert "SAT" in capsys.readouterr().out
        text = (out / "witness.txt").read_text()
        assert text.startswith("# emx-scheme-witness 1")
        assert "eta:  | 0 1 2" in text

    def test_five_point_threshold(self, tmp_path):
        assert main(["search", "5", "1", "2"]) == 1
        assert main(["search", "5", "1", "3", "--out", str(tmp_path / "w")]) == 0

    def test_large_n_guard(self, tmp_path, capsys):
        # UNSAT needs no witness, so it is answered at any size
        assert main(["search", "9", "0", "3"]) == 1
        assert main(["search", "1000", "2", "5"]) == 1
        out = tmp_path / "w"
        assert main(["search", "9", "3", "8", "--out", str(out)]) == 0
        etas = [line for line in (out / "witness.txt").read_text().splitlines() if line.startswith("eta: ")]
        assert len(etas) == comb(9, 3)
        assert all(len(line.split("|")[1].split()) <= 8 for line in etas)
        capsys.readouterr()
        # SAT, but the witness would tabulate more subsets than the guard allows
        assert comb(17, 4) > SEARCH_SUBSET_LIMIT
        assert main(["search", "17", "3", "8"]) == 2
        assert str(SEARCH_SUBSET_LIMIT) in capsys.readouterr().err

    def test_largest_guarded_case_builds(self, tmp_path):
        n = max(n for n in range(4, 40) if comb(n, 4) <= SEARCH_SUBSET_LIMIT)
        budget = next(b for b in range(4, n) if not counting_refutes(SearchProblem(n, 3, b)))
        assert main(["search", str(n), "3", str(budget), "--out", str(tmp_path / "w")]) == 0
        assert (tmp_path / "w" / "witness.txt").exists()

    def test_invalid_problem_exits_two(self, capsys):
        assert main(["search", "1", "0", "2"]) == 2

    def test_tight_seven_point_case_exits_zero(self, capsys):
        assert main(["search", "7", "2", "4"]) == 0
        assert capsys.readouterr().out.startswith("SAT")


class TestDescend:
    def test_enumeration_descent(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "schema": "emx-experiment/1",
                "domain": {"kind": "naturals"},
                "scheme": {"kind": "enumeration"},
                "descend": {"x_size": 101, "y_size": 6},
            },
        )
        out = tmp_path / "out"
        assert main(["descend", cfg, "--out", str(out)]) == 0
        text = (out / "descent.txt").read_text()
        assert "x: 6" in text
        assert "z_size: 6" in text
        assert "reduced_m: 0" in text

    def test_huge_domain_writes_the_same_witness(self, tmp_path):
        texts = []
        for x_size in (101, 10**12):
            cfg = write_config(
                tmp_path,
                {
                    "schema": "emx-experiment/1",
                    "domain": {"kind": "naturals"},
                    "scheme": {"kind": "enumeration"},
                    "descend": {"x_size": x_size, "y_size": 6},
                },
            )
            out = tmp_path / str(x_size)
            assert main(["descend", cfg, "--out", str(out)]) == 0
            texts.append((out / "descent.txt").read_text())
        assert texts[0] == texts[1]

    def test_tower_descent_succeeds_on_mined_instance(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "schema": "emx-experiment/1",
                "domain": {"kind": "finite", "size": 60},
                "tower": {"depth": 1, "seed": 2510},
                "scheme": {"kind": "tower"},
                "descend": {"y_size": 8},
            },
        )
        out = tmp_path / "out"
        assert main(["descend", cfg, "--out", str(out)]) == 0
        assert "reduced_m: 1" in (out / "descent.txt").read_text()

    def test_desk_scale_failure_exits_one(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "schema": "emx-experiment/1",
                "domain": {"kind": "finite", "size": 10},
                "tower": {"depth": 1, "seed": 0},
                "scheme": {"kind": "tower"},
                "descend": {"y_size": 8},
            },
        )
        assert main(["descend", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "|Z| = 10" in capsys.readouterr().err

    def test_oversized_sub_domain_exits_two(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "schema": "emx-experiment/1",
                "domain": {"kind": "naturals"},
                "scheme": {"kind": "enumeration"},
                "descend": {"x_size": 500, "y_size": 300},
            },
        )
        assert main(["descend", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "guard" in capsys.readouterr().err


class TestCompress:
    def test_trace_dump(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "schema": "emx-experiment/1",
                "domain": {"kind": "naturals"},
                "scheme": {"kind": "enumeration"},
                "compress": {"points": [4, 9, 2]},
            },
        )
        out = tmp_path / "out"
        assert main(["compress", cfg, "--out", str(out)]) == 0
        text = (out / "trace.txt").read_text()
        assert text == "# emx-trace 1\noriginal: 2 4 9\nstep: 2 4 | 2\nstep: 4 9 | 4\nkernel: 9\n"

    def test_too_few_points_exits_two(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "schema": "emx-experiment/1",
                "domain": {"kind": "finite", "size": 20},
                "tower": {"depth": 1, "seed": 1},
                "scheme": {"kind": "tower"},
                "compress": {"points": [3]},
            },
        )
        assert main(["compress", cfg, "--out", str(tmp_path / "o")]) == 2


NATURALS = {"domain": {"kind": "naturals"}, "scheme": {"kind": "enumeration"}}
TEN_POINT_TOWER = {
    "domain": {"kind": "finite", "size": 10},
    "tower": {"depth": 1, "seed": 1},
    "scheme": {"kind": "tower"},
}


EXPLICIT_EVAL = {"evaluate": {"m": [3], "epsilon": ["1/4"], "trials": 5}}


def identity_eta(m, command, extra):
    return {**NATURALS, "scheme": {"kind": "identity-eta", "m": m}, command: extra}


class TestExitCodes:
    @pytest.mark.parametrize(
        "command, sections, names",
        [
            pytest.param(
                "verify",
                {**TEN_POINT_TOWER, "scheme": {"kind": "enumeration"}, "verify": {}},
                "depth-0 tower",
                id="enumeration-scheme-on-depth-1-tower",
            ),
            pytest.param(
                "verify", {**NATURALS, "verify": {"count": "abc"}}, "'abc'", id="verify-count-abc"
            ),
            pytest.param(
                "verify",
                {**TEN_POINT_TOWER, "domain": {"kind": "finite", "size": 0}, "verify": {}},
                "domain.size must be >= 1, got 0",
                id="domain-size-0",
            ),
            pytest.param(
                "verify",
                {**TEN_POINT_TOWER, "domain": {"kind": "finite", "size": [3]}, "verify": {}},
                "domain.size must be an integer, got [3]",
                id="domain-size-list",
            ),
            pytest.param(
                "verify",
                {**TEN_POINT_TOWER, "domain": {"kind": "finite", "size": True}, "verify": {}},
                "domain.size must be an integer, got True",
                id="domain-size-true",
            ),
            pytest.param(
                "verify",
                {**TEN_POINT_TOWER, "domain": {"kind": "finite", "size": 6.7}, "verify": {}},
                "domain.size must be an integer, got 6.7",
                id="domain-size-fraction",
            ),
            pytest.param(
                "compress", {**TEN_POINT_TOWER, "compress": {"points": [1, 2, 100]}},
                "point 100",
                id="point-outside-finite-domain",
            ),
            pytest.param(
                "compress", {**NATURALS, "compress": {"points": [1, -4, 3]}},
                "point -4",
                id="negative-point-on-naturals",
            ),
            pytest.param(
                "compress", {**NATURALS, "compress": {"points": 5}},
                "compress.points",
                id="compress-points-not-a-list",
            ),
            pytest.param(
                "descend", {**NATURALS, "descend": {"x_size": 50, "y": [1, 2, "q"]}},
                "'q'",
                id="descend-y-not-a-number",
            ),
            pytest.param(
                "descend", {**NATURALS, "descend": {"x_size": 50, "y": [1, 1, 2, 3]}},
                "descend.y must hold distinct ids, got [1, 1, 2, 3]",
                id="descend-y-repeated-id",
            ),
            pytest.param(
                "compress", {**NATURALS, "compress": {"points": [3, 3, 5]}},
                "compress.points must hold distinct ids, got [3, 3, 5]",
                id="compress-points-repeated-id",
            ),
            pytest.param(
                "evaluate",
                {
                    **NATURALS,
                    "distribution": {"kind": "explicit", "masses": {"x": "1/2", "1": "1/2"}},
                    **EXPLICIT_EVAL,
                },
                "'x'",
                id="mass-key-x",
            ),
            pytest.param(
                "evaluate",
                {
                    **NATURALS,
                    "distribution": {"kind": "explicit", "masses": [[1, "1/2"], [2, "1/2"]]},
                    **EXPLICIT_EVAL,
                },
                "distribution.masses",
                id="masses-as-list",
            ),
            pytest.param(
                "verify", identity_eta(-1, "verify", {"count": 6}), "scheme.m must be >= 0, got -1",
                id="identity-eta-negative-m-verify",
            ),
            pytest.param(
                "compress", identity_eta(-1, "compress", {"points": [1, 2]}),
                "scheme.m must be >= 0, got -1",
                id="identity-eta-negative-m-compress",
            ),
            pytest.param(
                "evaluate",
                {
                    **identity_eta(-2, "evaluate", EXPLICIT_EVAL["evaluate"]),
                    "distribution": {"kind": "uniform-range", "lo": 1, "hi": 5},
                },
                "scheme.m must be >= 0, got -2",
                id="identity-eta-negative-m-evaluate",
            ),
            pytest.param(
                "verify", identity_eta(1.5, "verify", {"count": 6}),
                "scheme.m must be an integer, got 1.5",
                id="identity-eta-fractional-m",
            ),
            pytest.param(
                "verify", identity_eta("2", "verify", {"count": 6}),
                "scheme.m must be an integer, got '2'",
                id="identity-eta-string-m",
            ),
            pytest.param(
                "verify", {**NATURALS, "verify": {"count": 1}}, "verify.count must be >= 2, got 1",
                id="verify-count-below-one-subset",
            ),
            pytest.param(
                "verify", {**TEN_POINT_TOWER, "verify": {"mode": "random", "samples": 0}},
                "verify.samples must be >= 1, got 0",
                id="verify-samples-0",
            ),
            pytest.param(
                "verify", {**TEN_POINT_TOWER, "verify": {"mode": "random", "samples": -1}},
                "verify.samples must be >= 1, got -1",
                id="verify-samples-negative",
            ),
            pytest.param(
                "verify",
                {**TEN_POINT_TOWER, "tower": {"depth": 2, "seed": 7},
                 "verify": {"mode": "random", "pool": 3}},
                "verify.pool must be >= 4, got 3",
                id="verify-pool-below-one-subset",
            ),
            pytest.param(
                "evaluate",
                {**NATURALS, "distribution": {"kind": "uniform-range", "lo": 1, "hi": 5},
                 "evaluate": {**EXPLICIT_EVAL["evaluate"], "per_trial": "false"}},
                "evaluate.per_trial must be true or false, got 'false'",
                id="per-trial-string",
            ),
            pytest.param(
                "verify", {**TEN_POINT_TOWER, "tower": {"depth": 1.9, "seed": 1}, "verify": {}},
                "tower.depth must be an integer, got 1.9",
                id="tower-depth-fraction",
            ),
            pytest.param(
                "evaluate",
                {**NATURALS, "distribution": {"kind": "uniform-range", "lo": 1, "hi": 5},
                 "evaluate": {**EXPLICIT_EVAL["evaluate"], "trails": 10}},
                "unknown field evaluate.trails",
                id="misspelt-evaluate-field",
            ),
            pytest.param(
                "compress", {**NATURALS, "compres": {"points": [1, 2]}},
                "unknown section 'compres'",
                id="misspelt-section",
            ),
        ],
    )
    def test_bad_input_exits_two_without_traceback(self, tmp_path, capsys, command, sections,
                                                   names):
        cfg = write_config(tmp_path, {"schema": "emx-experiment/1", **sections})
        out = str(tmp_path / "out")
        assert main([command, cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(("error: ", "config error: "))
        assert names in err
        run = run_cli_process([command, cfg, "--out", out])
        assert run.returncode == 2
        assert "Traceback" not in run.stderr
        assert run.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "sections, line",
        [
            ({**TEN_POINT_TOWER, "compress": {"points": [1, 2, 100]}},
             "error: point 100 is not in the domain\n"),
            ({**NATURALS, "compress": {"points": [1, 2, -3]}},
             "error: point -3 is not in the domain\n"),
        ],
        ids=["finite-domain", "naturals"],
    )
    def test_point_outside_domain_message(self, tmp_path, capsys, sections, line):
        cfg = write_config(tmp_path, {"schema": "emx-experiment/1", **sections})
        assert main(["compress", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == line

    @pytest.mark.parametrize(
        "section, text, key",
        [
            pytest.param("evaluate",
                         '"evaluate": {"m": [3], "epsilon": ["1/4"], "seed": 1, "seed": 5}',
                         "seed", id="field"),
            pytest.param("distribution",
                         '"distribution": {"kind": "explicit",'
                         ' "masses": {"1": "1/2", "2": "1/2", "1": "1/2"}}',
                         "1", id="mass-key"),
            pytest.param("scheme",
                         '"scheme": {"kind": "tower"}, "scheme": {"kind": "enumeration"}',
                         "scheme", id="section"),
        ],
    )
    def test_repeated_key_exits_two(self, tmp_path, monkeypatch, capsys, section, text, key):
        sections = {**NATURALS, "distribution": {"kind": "uniform-range", "lo": 1, "hi": 5},
                    **EXPLICIT_EVAL}
        del sections[section]
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"schema": "emx-experiment/1", **sections})[:-1]
                        + ", " + text + "}")
        exits_two_before_any_trial(str(path), str(tmp_path / "out"), monkeypatch, capsys,
                                   f"key {key!r} appears twice in one object")

    @pytest.mark.parametrize(
        "command, sections, message",
        [
            pytest.param(
                "evaluate",
                {
                    **NATURALS,
                    "distribution": {"kind": "uniform-range", "lo": 1, "hi": 20},
                    "evaluate": {"m": [3], "epsilon": ["1/4"], "trials": 5, "delta": "1/10"},
                },
                "evaluate.delta",
                id="removed-evaluate-delta",
            ),
            pytest.param(
                "descend",
                {**NATURALS, "descend": {"x_size": 50, "y_size": 4, "z_mode": "direct"}},
                "descend.z_mode",
                id="removed-descend-z-mode",
            ),
        ],
    )
    def test_removed_keys_are_rejected(self, tmp_path, capsys, command, sections, message):
        cfg = write_config(tmp_path, {"schema": "emx-experiment/1", **sections})
        out = tmp_path / "out"
        assert main([command, cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert message in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_unexpected_exceptions_propagate(self, monkeypatch):
        def broken(args):
            raise AssertionError("a bug, not bad input")

        monkeypatch.setattr(emx.cli, "search_schemes", broken)
        with pytest.raises(AssertionError):
            main(["search", "3", "0", "3"])


def read_all_outputs(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# The shipped configs on the countable domain with the enumeration scheme.
SHIPPED_ENUMERATION_CONFIGS = [
    ("compress", "compress_demo.json"),
    ("descend", "descend_enumeration.json"),
    ("evaluate", "german_tank.json"),
    ("verify", "verify_calkin_wilf.json"),
]


def runs_under_each_kind(tmp_path, monkeypatch, capsys, command, name, section, kinds):
    """Exit code, stdout, stderr and output files of a shipped config run
    once with `section.kind` set to each kind."""
    config = json.loads((CONFIGS / name).read_text())
    runs = []
    for kind in kinds:
        workdir = tmp_path / kind
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        config[section] = {"kind": kind}
        write_config(workdir, config, name)
        code = main([command, name, "--out", "out"])
        captured = capsys.readouterr()
        runs.append((code, captured.out, captured.err, read_all_outputs(workdir / "out")))
    return runs


class TestDomainAlias:
    """`calkin-wilf` names the countable domain that `naturals` names: a
    shipped config gives the same run under either kind."""

    @pytest.mark.parametrize("command, name", SHIPPED_ENUMERATION_CONFIGS)
    def test_shipped_config_runs_alike_under_both_kinds(self, tmp_path, monkeypatch, capsys,
                                                        command, name):
        runs = runs_under_each_kind(tmp_path, monkeypatch, capsys, command, name,
                                    "domain", ("naturals", "calkin-wilf"))
        assert runs[0] == runs[1]
        assert runs[0][3]


class TestSchemeAlias:
    """`enumeration` is the depth-0 `tower` scheme: a shipped enumeration
    config gives the same run under either kind."""

    @pytest.mark.parametrize("command, name", SHIPPED_ENUMERATION_CONFIGS)
    def test_shipped_config_runs_alike_under_both_kinds(self, tmp_path, monkeypatch, capsys,
                                                        command, name):
        assert json.loads((CONFIGS / name).read_text())["scheme"] == {"kind": "enumeration"}
        runs = runs_under_each_kind(tmp_path, monkeypatch, capsys, command, name,
                                    "scheme", ("enumeration", "tower"))
        assert runs[0] == runs[1]
        assert runs[0][3]


class TestDeterminism:
    def test_every_subcommand_is_byte_identical_on_rerun(self, tmp_path):
        verify_cfg = cw_verify_config(tmp_path, count=12)
        eval_cfg = tank_eval_config(tmp_path, trials=50, per_trial=True)
        descend_cfg = write_config(
            tmp_path,
            {
                "schema": "emx-experiment/1",
                "domain": {"kind": "naturals"},
                "scheme": {"kind": "enumeration"},
                "descend": {"x_size": 60, "y_size": 5},
            },
            "descend.json",
        )
        compress_cfg = write_config(
            tmp_path,
            {
                "schema": "emx-experiment/1",
                "domain": {"kind": "finite", "size": 40},
                "tower": {"depth": 1, "seed": 6},
                "scheme": {"kind": "tower"},
                "compress": {"points": [1, 5, 9, 13, 22]},
            },
            "compress.json",
        )
        runs = [
            (["verify", verify_cfg], "v"),
            (["evaluate", eval_cfg], "e"),
            (["search", "5", "1", "3"], "s"),
            (["descend", descend_cfg], "d"),
            (["compress", compress_cfg], "c"),
        ]
        for argv, tag in runs:
            first = tmp_path / f"{tag}1"
            second = tmp_path / f"{tag}2"
            if argv[0] == "search":
                assert main(argv + ["--out", str(first)]) == 0
                assert main(argv + ["--out", str(second)]) == 0
            else:
                assert main(argv + ["--out", str(first)]) == 0
                assert main(argv + ["--out", str(second)]) == 0
            assert read_all_outputs(first) == read_all_outputs(second)


# Values of the string fields that reach the builders; any other string is
# drawn as an arbitrary JSON value.
FIELD_WORDS = {
    ("domain", "kind"): ["naturals", "calkin-wilf", "finite"],
    ("scheme", "kind"): ["enumeration", "tower", "identity-eta"],
    ("distribution", "kind"): ["uniform-range", "explicit"],
    ("verify", "mode"): ["exhaustive", "random"],
}
SMALL_INTS = st.integers(-2, 12)
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)
# Sections a command reads besides domain, tower and scheme.
COMMAND_SECTIONS = {
    "verify": {"verify"},
    "evaluate": {"learner", "distribution", "evaluate"},
    "descend": {"descend"},
    "compress": {"compress"},
}
FIELD_NAMES = [(section, name) for section, fields in FIELDS.items() for name in fields]


def valid_values(section, name, kind=None):
    """Values a FIELDS entry accepts, with integers from -2 (or the
    field's minimum) to 12."""
    given, minimum = FIELDS[section][name]
    kind = given if kind is None else kind
    if isinstance(kind, UnionType):
        return st.one_of(*(valid_values(section, name, k) for k in get_args(kind)))
    if get_origin(kind) is list:
        return st.lists(valid_values(section, name, get_args(kind)[0]), min_size=1, max_size=3)
    if get_origin(kind) is dict:
        return st.dictionaries(SMALL_INTS.map(str), valid_values(section, name, Fraction),
                               max_size=4)
    if kind is Fraction:
        pairs = st.tuples(SMALL_INTS, st.integers(1, 12)).map(list)
        return SMALL_INTS | pairs | pairs.map(lambda p: f"{p[0]}/{p[1]}")
    if kind is str:
        return st.sampled_from(FIELD_WORDS[section, name])
    if kind is bool:
        return st.booleans()
    if kind is float:
        return st.floats(0, 1, exclude_min=True, exclude_max=True)
    return st.integers(-2 if minimum is None else minimum, 12)


class TestFuzzedConfigs:
    """The exit-code contract on configs drawn from the field table. A
    drawn config holds the sections its command reads, now and then one
    more, and all their fields but at most two, with valid values. In
    half of the examples up to three fields hold any JSON value instead,
    and now and then so does a whole section or the schema tag."""

    @settings(max_examples=300)
    @given(st.data())
    def test_exit_code_contract(self, data):
        command = data.draw(st.sampled_from(sorted(COMMAND_SECTIONS)))
        absent = data.draw(st.sets(st.sampled_from(FIELD_NAMES), max_size=2))
        wild = set()
        if data.draw(st.booleans()):
            wild = data.draw(st.sets(st.sampled_from(FIELD_NAMES), max_size=3))
        sections = {"domain", "tower", "scheme"} | COMMAND_SECTIONS[command]
        sections |= data.draw(st.sets(st.sampled_from(sorted(FIELDS)), max_size=1))
        config = {"schema": "emx-experiment/1"}
        for section, name in FIELD_NAMES:
            if section in sections and (section, name) not in absent:
                values = ANY_JSON if (section, name) in wild else valid_values(section, name)
                config.setdefault(section, {})[name] = data.draw(values)
        if wild and data.draw(st.booleans()):
            config[data.draw(st.sampled_from(sorted(config)))] = data.draw(ANY_JSON)
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "exp.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(config, handle)
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main([command, path, "--out", os.path.join(work, "out")])
        assert code in (0, 1, 2, 3)
        if code:
            assert stderr.getvalue().count("\n") <= 1
