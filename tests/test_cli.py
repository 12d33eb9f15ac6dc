import argparse
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path
from types import UnionType
from typing import Literal, get_args, get_origin

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import emx
import emx.cli
import emx.config
from emx.analysis import SearchProblem, counting_refutes
from emx.cli import SEARCH_SUBSET_LIMIT, main
from emx.config import (
    COUNTABLE_POOL_LIMIT,
    DOMAIN_SIZE_LIMIT,
    EVALUATE_M_LIMIT,
    EXHAUSTIVE_SUBSET_LIMIT,
    FIELDS,
    ExperimentConfig,
    load_config,
    parse_rational,
)
from emx.core import FiniteDomain, FiniteSupportDistribution


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
        raise AssertionError("evaluate_grid ran on an invalid config")

    monkeypatch.setattr(emx.cli, "evaluate_grid", no_trials)
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

        monkeypatch.setattr(emx.config, "seeded_subsets", no_subsets)
        out = tmp_path / "o"
        assert main(["verify", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "verify.samples of 200001 is above the 200000 guard" in err
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

        monkeypatch.setattr(emx.config, "seeded_subsets", no_subsets)
        out = tmp_path / "o"
        assert main(["verify", config(1_001), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert ("random verify's pool holds point 1000 of a countable domain, at or above the "
                "1000 guard") in err
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
            ({"epsilon": ["5/4", "-1/2"]}, "evaluate.epsilon must be in (0, 1], got 5/4"),
            ({"epsilon": ["1/4", "5/4"]}, "evaluate.epsilon must be in (0, 1], got 5/4"),
            ({"epsilon": "0"}, "evaluate.epsilon must be in (0, 1], got 0/1"),
            ({"m": [4, 4]}, "evaluate.m must hold distinct values, got 4 twice"),
            ({"epsilon": ["1/4", "2/8"]}, "evaluate.epsilon must hold distinct values, got 1/4 twice"),
            ({"m": [4, 4], "epsilon": ["1/4", "2/8"]},
             "evaluate.m must hold distinct values, got 4 twice"),
            ({"m": []}, "evaluate.m must hold at least one value"),
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

    @pytest.mark.parametrize("m", [[EVALUATE_M_LIMIT + 1], [2, 1_000_000_000]])
    def test_sample_size_above_the_guard_exits_two(self, tmp_path, monkeypatch, capsys, m):
        cfg = tank_eval_config(tmp_path, m=m)
        exits_two_before_any_trial(cfg, str(tmp_path / "out"), monkeypatch, capsys,
                                   f"evaluate.m of {max(m)} is above the {EVALUATE_M_LIMIT} guard")

    @pytest.mark.parametrize("domain", [{"kind": "naturals"}, {"kind": "calkin-wilf"}])
    def test_countable_support_guard(self, tmp_path, monkeypatch, capsys, domain):
        def config(hi):
            cfg = json.loads(Path(tank_eval_config(tmp_path, trials=1, m=[2])).read_text())
            cfg.update(domain=domain, distribution={"kind": "uniform-range", "lo": 0, "hi": hi})
            return write_config(tmp_path, cfg, f"support-{hi}.json")

        assert main(["evaluate", config(999), "--out", str(tmp_path / "at")]) == 0
        assert capsys.readouterr().err == ""
        run = run_cli_process(["evaluate", config(999), "--out", str(tmp_path / "at-process")])
        assert (run.returncode, run.stderr) == (0, "")
        exits_two_before_any_trial(
            config(1_000), str(tmp_path / "o"), monkeypatch, capsys,
            "distribution puts mass on point 1000 of a countable domain, at or above the "
            "1000 guard",
        )

    @pytest.mark.parametrize(
        "domain, lo, line_end",
        [
            ({"kind": "naturals"}, 0,
             "point 1000000000 of a countable domain, at or above the 1000 guard"),
            ({"kind": "naturals"}, -5, "point -5, outside the domain"),
            ({"kind": "finite", "size": 60}, 0, "point 60, outside the domain"),
            ({"kind": "finite", "size": 60}, 100, "point 100, outside the domain"),
        ],
        ids=["naturals", "naturals-from-minus-5", "finite-from-0", "finite-from-100"],
    )
    def test_oversized_uniform_range_is_never_built(self, tmp_path, monkeypatch, capsys,
                                                     domain, lo, line_end):
        def no_range(*args, **kwargs):
            raise AssertionError("a uniform range was built before its check")

        monkeypatch.setattr(FiniteSupportDistribution, "uniform", no_range)
        cfg = json.loads(Path(tank_eval_config(tmp_path, trials=1, m=[2])).read_text())
        cfg.update(domain=domain, tower={"depth": 0, "seed": 1}, scheme={"kind": "tower"},
                   distribution={"kind": "uniform-range", "lo": lo, "hi": 10**9})
        path = write_config(tmp_path, cfg)
        exits_two_before_any_trial(
            path, str(tmp_path / "o"), monkeypatch, capsys,
            f"config error: {path}: distribution puts mass on {line_end}\n",
        )

    def test_support_guard_spares_finite_domains(self, tmp_path, capsys):
        cfg = json.loads(Path(tank_eval_config(tmp_path, trials=1, m=[2])).read_text())
        cfg.update(domain={"kind": "finite", "size": 1_001}, tower={"depth": 0, "seed": 1},
                   scheme={"kind": "tower"},
                   distribution={"kind": "explicit", "masses": {"1000": "1/1"}})
        assert main(["evaluate", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""

    def test_sample_size_at_the_guard_runs(self, tmp_path):
        cfg = tank_eval_config(tmp_path, trials=1, m=[EVALUATE_M_LIMIT])
        out = tmp_path / "out"
        assert main(["evaluate", cfg, "--out", str(out)]) == 0
        assert (out / "evaluation.csv").read_text().splitlines()[1].startswith(
            f"{EVALUATE_M_LIMIT},1/4,1,1,")


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

    def test_unsat_computes_no_binomial(self, monkeypatch, capsys):
        def no_comb(*args):
            raise AssertionError("a binomial computed for a problem the bound refutes")

        monkeypatch.setattr(emx.cli, "comb", no_comb)
        assert main(["search", "200000", "100000", "3"]) == 1
        assert capsys.readouterr().out == "UNSAT (counting bound; 0 nodes)\n"


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

    @pytest.mark.parametrize("domain", [{"kind": "naturals"}, {"kind": "calkin-wilf"}])
    def test_countable_sub_domain_guard(self, tmp_path, monkeypatch, capsys, domain):
        def config(top):
            return write_config(
                tmp_path,
                {
                    "schema": "emx-experiment/1",
                    "domain": domain,
                    "scheme": {"kind": "enumeration"},
                    "descend": {"x_size": 2_000, "y": [0, 1, 2, top]},
                },
                f"descend-{top}.json",
            )

        assert main(["descend", config(999), "--out", str(tmp_path / "at")]) == 0
        assert "x: 1000" in (tmp_path / "at" / "descent.txt").read_text()
        run = run_cli_process(["descend", config(999), "--out", str(tmp_path / "at-process")])
        assert (run.returncode, run.stderr) == (0, "")
        capsys.readouterr()

        def no_descent(*args, **kwargs):
            raise AssertionError("descended past the guard")

        monkeypatch.setattr(emx.cli, "descend", no_descent)
        out = str(tmp_path / "o")
        message = ("descend sub-domain holds point 1000 of a countable domain, at or above "
                   "the 1000 guard")
        assert main(["descend", config(1_000), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and message in err
        run = run_cli_process(["descend", config(1_000), "--out", out])
        assert run.returncode == 2 and "Traceback" not in run.stderr
        assert run.stderr.startswith("config error: ") and run.stderr.count("\n") == 1
        assert message in run.stderr
        assert not os.path.exists(out)

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

    @staticmethod
    def finite_config(tmp_path, descend):
        return write_config(
            tmp_path,
            {
                "schema": "emx-experiment/1",
                "domain": {"kind": "finite", "size": 60},
                "tower": {"depth": 1, "seed": 3},
                "scheme": {"kind": "tower"},
                "descend": descend,
            },
        )

    @pytest.mark.parametrize("descend, first", [({"x_size": 10, "y_size": 12}, 10),
                                                ({"x_size": 10, "y": [3, 12, 0, 11, 1]}, 11)])
    def test_sub_domain_at_x_size_names_it(self, tmp_path, monkeypatch, capsys, descend, first):
        """Domain ids at or above descend.x_size are one config error naming
        x_size and the smallest of them, before any descent."""

        def no_descent(*args, **kwargs):
            raise AssertionError("descended past x_size")

        monkeypatch.setattr(emx.cli, "descend", no_descent)
        path, out = self.finite_config(tmp_path, descend), str(tmp_path / "o")
        line = (f"config error: {path}: descend sub-domain holds point {first}, at or above "
                "descend.x_size of 10\n")
        assert main(["descend", path, "--out", out]) == 2
        assert capsys.readouterr().err == line
        run = run_cli_process(["descend", path, "--out", out])
        assert (run.returncode, run.stderr) == (2, line)
        assert not os.path.exists(out)

    def test_sub_domain_outside_a_finite_domain_exits_two(self, tmp_path, capsys):
        path = self.finite_config(tmp_path, {"y": [0, 1, 60]})
        assert main(["descend", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: sub-domain must lie inside the domain\n"


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


class TestParserReuse:
    """`main` builds its parser on the first call and reuses it: no call
    may see the arguments, defaults or output of an earlier one."""

    USAGE_ERROR = ["search", "x", "0", "2"]

    def test_one_parser_serves_every_subcommand(self, tmp_path, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        emx.cli.build_parser.cache_clear()
        for argv in (
            ["verify", cw_verify_config(tmp_path, count=6)],
            ["evaluate", tank_eval_config(tmp_path, trials=5)],
            ["search", "3", "0", "3"],
            ["descend", str(CONFIGS / "descend_enumeration.json")],
            ["compress", str(CONFIGS / "compress_demo.json")],
        ) * 2:
            assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        # the main parser and one subparser per command, all from the first call
        assert len(built) == 6

    def test_import_builds_no_parser(self):
        src = str(Path(emx.__file__).resolve().parent.parent)
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import emx.cli\n"
            "print(len(built), emx.cli.build_parser.cache_info().currsize)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 0\n", "")

    def test_usage_error_leaves_the_parser_usable(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.USAGE_ERROR)
        assert exc.value.code == 2
        out = tmp_path / "w"
        assert main(["search", "3", "0", "3", "--out", str(out)]) == 0
        assert (out / "witness.txt").exists()

    def test_no_option_carries_over(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", cw_verify_config(tmp_path, count=6), "--out", "D"]) == 0
        assert main(["search", "3", "0", "3"]) == 0
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["D", "exp.json", "soundness.csv"]

    def test_help_and_usage_errors_are_byte_identical(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
        for argv, code in ((["--help"], 0), (["verify", "--help"], 0), (self.USAGE_ERROR, 2)):
            fresh = run_cli_process(argv)
            assert fresh.returncode == code
            for _ in range(2):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == code
                assert capsys.readouterr() == (fresh.stdout, fresh.stderr)


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
                "compress.points must be >= 0, got -4",
                id="negative-point-on-naturals",
            ),
            pytest.param(
                "compress", {**TEN_POINT_TOWER, "compress": {"points": [-2, -1]}},
                "compress.points must be >= 0, got -2",
                id="negative-points-that-need-no-step",
            ),
            pytest.param(
                "descend", {**TEN_POINT_TOWER, "descend": {"y": [-1]}},
                "descend.y must be >= 0, got -1",
                id="descend-y-negative",
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
                "descend.y must hold distinct values, got 1 twice",
                id="descend-y-repeated-id",
            ),
            pytest.param(
                "compress", {**NATURALS, "compress": {"points": [3, 3, 5]}},
                "compress.points must hold distinct values, got 3 twice",
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
                "verify", {**TEN_POINT_TOWER, "verify": {"count": 12}},
                "verify.count of 12 is above domain.size 10",
                id="verify-count-above-the-domain-size",
            ),
            pytest.param(
                "verify",
                {**TEN_POINT_TOWER, "scheme": {"kind": "identity-eta", "m": 1},
                 "verify": {"mode": "random", "pool": 11}},
                "verify.pool of 11 is above domain.size 10",
                id="verify-pool-above-the-domain-size",
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
                "compress", {**NATURALS, "compress": {"points": [1, 2], "\n": 1}},
                "unknown field compress.'\\n'",
                id="field-name-with-a-newline",
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
             "config error: {path}: compress.points holds point 100, at or above domain.size 10\n"),
            # two points on a depth-1 tower are already a kernel: no sigma step
            # would see them
            ({**TEN_POINT_TOWER, "compress": {"points": [60, 50]}},
             "config error: {path}: compress.points holds point 50, at or above domain.size 10\n"),
            ({**NATURALS, "compress": {"points": [1, 2, -3]}},
             "config error: {path}: compress.points must be >= 0, got -3\n"),
        ],
        ids=["finite-domain", "finite-domain-kernel", "naturals"],
    )
    def test_point_outside_domain_message(self, tmp_path, capsys, sections, line):
        cfg = write_config(tmp_path, {"schema": "emx-experiment/1", **sections})
        assert main(["compress", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == line.format(path=cfg)

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

    @pytest.mark.parametrize("under_file", [True, False], ids=["under-a-file", "is-a-file"])
    @pytest.mark.parametrize("command", ["verify", "evaluate", "search", "descend", "compress"])
    def test_out_path_that_cannot_be_created_exits_two(self, tmp_path, capsys, command,
                                                       under_file):
        argv = {
            "verify": ["verify", cw_verify_config(tmp_path, count=6)],
            "evaluate": ["evaluate", tank_eval_config(tmp_path, trials=5)],
            "search": ["search", "5", "1", "3"],
            "descend": ["descend", str(CONFIGS / "descend_enumeration.json")],
            "compress": ["compress", str(CONFIGS / "compress_demo.json")],
        }[command]
        blocker = tmp_path / "F"
        blocker.write_text("a file\n")
        argv += ["--out", str(blocker / "x" if under_file else blocker)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        run = run_cli_process(argv)
        assert run.returncode == 2
        assert "Traceback" not in run.stderr
        assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
        assert blocker.read_text() == "a file\n"

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


# Fields that hold point ids or counts of ids, which the countable-id guard
# bounds. With the fields that have a maximum, they are the fields whose
# integers the fuzzed configs may draw at a guard's edge.
ID_FIELDS = {("verify", "count"), ("verify", "pool"), ("distribution", "lo"),
             ("distribution", "hi"), ("distribution", "masses"), ("descend", "x_size"),
             ("descend", "y_size"), ("descend", "y"), ("compress", "points")}
EDGE_FIELDS = [(section, name) for section, name in FIELD_NAMES
               if (section, name) in ID_FIELDS or FIELDS[section][name].maximum is not None]


def valid_values(section, name, kind=None, edges=False):
    """Values a FIELDS entry accepts: a Literal's own strings, integers
    from -2 (or the field's minimum) to 12, rationals in (0, 1] with
    denominators up to 12, and lists that repeat no value. With edges,
    the integers lie at and next to the guards they may reach instead: the
    countable-id guard (COUNTABLE_POOL_LIMIT) and the field's maximum
    (DOMAIN_SIZE_LIMIT, EVALUATE_M_LIMIT or EXHAUSTIVE_SUBSET_LIMIT), which
    a value just above it breaks."""
    field = FIELDS[section][name]
    given, minimum = field.kind, field.minimum
    kind = given if kind is None else kind
    ints = st.integers(-2 if minimum is None else minimum, 12)
    if edges:
        ints = st.sampled_from([COUNTABLE_POOL_LIMIT + step for step in (-1, 0, 1)])
        if field.maximum is not None:
            ints |= st.sampled_from([field.maximum, field.maximum + 1])
    if isinstance(kind, UnionType):
        return st.one_of(*(valid_values(section, name, k, edges) for k in get_args(kind)))
    if get_origin(kind) is Literal:
        return st.sampled_from(get_args(kind))
    if get_origin(kind) is list:
        return st.lists(valid_values(section, name, get_args(kind)[0], edges), min_size=1,
                        max_size=3, unique_by=parse_rational)
    if get_origin(kind) is dict:
        return st.dictionaries(ints.map(str), valid_values(section, name, Fraction), max_size=4)
    if kind is Fraction:
        pairs = st.integers(1, 12).flatmap(lambda d: st.tuples(st.integers(1, d), st.just(d)))
        pairs = pairs.map(list)
        return st.just(1) | pairs | pairs.map(lambda p: f"{p[0]}/{p[1]}")
    if kind is bool:
        return st.booleans()
    if kind is float:
        return st.floats(0, 1, exclude_min=True, exclude_max=True)
    return ints


# Each guard that one field's edge values reach: the stderr line it prints,
# and values of other fields that let it apply or keep the runs short (None:
# left out). The samples guard applies at load in either mode, and
# exhaustive runs do not draw the 200 000 samples below it.
GUARDS = {
    ("domain", "size"): (r"domain\.size of 2001 is above the 2000 guard", {}),
    ("evaluate", "m"): (r"evaluate\.m of 100001 is above the 100000 guard", {}),
    ("distribution", "hi"): (r"distribution puts mass on point \d+ of a countable domain, at",
                             {("distribution", "kind"): "uniform-range"}),
    ("verify", "count"): (r"exhaustive verify over \d+ points needs \d+ subsets, above",
                          {("verify", "mode"): "exhaustive"}),
    ("verify", "samples"): (r"verify\.samples of 200001 is above the 200000 guard",
                            {("verify", "mode"): "exhaustive"}),
    ("verify", "pool"): (r"random verify's pool holds point \d+ of a countable domain, at",
                         {("verify", "mode"): "random"}),
    ("descend", "y_size"): (r"descending over \d+ points needs \d+ subset evaluations, above",
                            {("descend", "y"): None}),
    ("descend", "y"): (r"descend sub-domain holds point \d+ of a countable domain, at", {}),
    ("compress", "points"): (r"compress\.points holds point \d+, at or above domain\.size \d+",
                             {("domain", "kind"): "finite"}),
}


class TestFuzzedConfigs:
    """The exit-code contract on configs drawn from the field table. A
    drawn config holds the sections its command reads, now and then one
    more, and all their fields but at most two, with valid values. In
    half of the examples one integer field of those sections holds values
    at the edges of its guards (999 to 1 001 and its maximum, such as
    2 000 and 2 001 for domain.size), so the guards are reached one at a
    time. In half of the examples up to three fields hold any JSON value
    instead, and now and then so does a whole section or the schema tag."""

    @staticmethod
    def run_drawn_config(data, guarded=None, fixed=None):
        """Draw a config, run it, check the contract and return its stderr.
        A guarded field is always at its edges, in a command that reads it,
        and the fields in fixed take their given values (None: left out)."""
        fixed = fixed or {}
        commands = sorted(command for command, reads in COMMAND_SECTIONS.items()
                          if guarded is None or guarded[0] in {"domain"} | reads)
        command = data.draw(st.sampled_from(commands))
        absent = data.draw(st.sets(st.sampled_from(FIELD_NAMES), max_size=2))
        absent = (absent - {guarded}) | {field for field, value in fixed.items() if value is None}
        wild = set()
        if data.draw(st.booleans()):
            wild = data.draw(st.sets(st.sampled_from(FIELD_NAMES), max_size=3))
        sections = {"domain", "tower", "scheme"} | COMMAND_SECTIONS[command]
        sections |= data.draw(st.sets(st.sampled_from(sorted(FIELDS)), max_size=1))
        edged = guarded
        if guarded is None and data.draw(st.booleans()):
            edged = data.draw(st.sampled_from([f for f in EDGE_FIELDS if f[0] in sections]))
        config = {"schema": "emx-experiment/1"}
        for section, name in FIELD_NAMES:
            if section in sections and (section, name) not in absent:
                values = valid_values(section, name, edges=(section, name) == edged)
                if (section, name) in wild:
                    values = ANY_JSON
                if (section, name) in fixed:
                    values = st.just(fixed[section, name])
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
        return stderr.getvalue()

    # too_slow times input generation, not the program, so a loaded machine
    # can trip it; it is suppressed here too for runs outside pytest's conftest
    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_exit_code_contract(self, data):
        self.run_drawn_config(data)

    @pytest.mark.parametrize("guarded", GUARDS, ids=".".join)
    def test_each_guard_is_reached(self, guarded):
        """Sampling favours early fields, so each of these guards gets
        examples of its own, all with its field at the edges, and one of
        them must end at that guard."""
        line, fixed = GUARDS[guarded]
        endings = []

        @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
        @given(st.data())
        def run(data):
            endings.append(self.run_drawn_config(data, guarded, fixed))

        run()
        assert any(re.search(line + ".*\n$", err) for err in endings)


# Every section, each with the fields that any choice of a Literal field
# needs, on a domain that every domain and scheme kind accepts.
ALL_SECTIONS = {
    "schema": "emx-experiment/1",
    "domain": {"kind": "finite", "size": 10},
    "tower": {"depth": 0, "seed": 1},
    "scheme": {"kind": "enumeration"},
    "learner": {"cap": 100},
    "distribution": {"kind": "uniform-range", "lo": 1, "hi": 4,
                     "masses": {"1": "1/2", "2": "1/2"}},
    "evaluate": {"m": [3], "epsilon": ["1/4"], "trials": 5},
    "verify": {"count": 6, "pool": 6, "samples": 5},
    "descend": {"y_size": 3},
    "compress": {"points": [1, 2]},
}
LITERAL_FIELDS = [(section, name, get_args(kind)) for section, fields in FIELDS.items()
                  for name, (kind, *_) in fields.items() if get_origin(kind) is Literal]


def with_field(tmp_path, section, name, value):
    config = json.loads(json.dumps(ALL_SECTIONS))
    config[section][name] = value
    return write_config(tmp_path, config)


class TestFieldTable:
    """The Literal fields of FIELDS and the code that reads them agree:
    every choice builds or runs, and any other string stops every command
    at load, whether or not the command reads that section."""

    @pytest.mark.parametrize(
        "section, name, choice",
        [(section, name, choice) for section, name, choices in LITERAL_FIELDS
         for choice in choices],
    )
    def test_every_choice_builds_or_runs(self, tmp_path, capsys, section, name, choice):
        path = with_field(tmp_path, section, name, choice)
        if section == "verify":
            out = tmp_path / "out"
            assert main(["verify", path, "--out", str(out)]) == 0
            assert (out / "soundness.csv").exists()
            return
        cfg = load_config(path)
        build = {"domain": cfg.build_domain, "scheme": cfg.build_scheme,
                 "distribution": cfg.build_distribution}[section]
        assert build() is not None

    @pytest.mark.parametrize("command", sorted(COMMAND_SECTIONS))
    @pytest.mark.parametrize("section, name, choices", LITERAL_FIELDS,
                             ids=[f"{s}.{n}" for s, n, _ in LITERAL_FIELDS])
    def test_other_strings_exit_two_at_load(self, tmp_path, monkeypatch, capsys, command,
                                            section, name, choices):
        def no_build(*args, **kwargs):
            raise AssertionError("a builder ran on an invalid config")

        monkeypatch.setattr(ExperimentConfig, "build_domain", no_build)
        out = tmp_path / "out"
        assert main([command, with_field(tmp_path, section, name, "bogus"), "--out",
                     str(out)]) == 2
        assert capsys.readouterr().err.endswith(
            f"{section}.{name} must be one of {', '.join(choices)}, got 'bogus'\n"
        )
        assert not out.exists()

    def test_a_section_the_command_does_not_read_is_checked(self, tmp_path, capsys):
        config = json.loads(Path(cw_verify_config(tmp_path, count=6)).read_text())
        config["evaluate"] = {"m": [4, 4], "epsilon": ["1/4"]}
        out = tmp_path / "out"
        assert main(["verify", write_config(tmp_path, config), "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith(
            "evaluate.m must hold distinct values, got 4 twice\n"
        )
        assert not out.exists()


class TestDomainSizeGuard:
    """A finite domain.size above DOMAIN_SIZE_LIMIT stops every command that
    builds a scheme, with one config error line, before any id is built."""

    @staticmethod
    def config(tmp_path, size):
        return write_config(tmp_path, {**ALL_SECTIONS, "domain": {"kind": "finite", "size": size},
                                       "tower": {"depth": 1, "seed": 3},
                                       "scheme": {"kind": "tower"}}, f"size-{size}.json")

    @pytest.mark.parametrize("command", sorted(COMMAND_SECTIONS))
    def test_above_the_guard_exits_two(self, tmp_path, monkeypatch, capsys, command):
        def no_ids(self):
            raise AssertionError("ids built past the guard")

        size = DOMAIN_SIZE_LIMIT + 1
        path, out = self.config(tmp_path, size), str(tmp_path / "out")
        line = (f"config error: {path}: domain.size of {size} is above the "
                f"{DOMAIN_SIZE_LIMIT} guard\n")
        monkeypatch.setattr(FiniteDomain, "ids", no_ids)
        assert main([command, path, "--out", out]) == 2
        assert capsys.readouterr().err == line
        run = run_cli_process([command, path, "--out", out])
        assert (run.returncode, run.stderr) == (2, line)
        assert not os.path.exists(out)

    def test_at_the_guard_runs(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["compress", self.config(tmp_path, DOMAIN_SIZE_LIMIT), "--out", str(out)]) == 0
        assert (out / "trace.txt").read_text().startswith("# emx-trace 1\noriginal: 1 2\n")



@pytest.mark.parametrize(
    "command, section, field",
    [("verify", {"verify": {"mode": "exhaustive"}}, "verify.count"),
     ("verify", {"verify": {"mode": "random"}}, "verify.pool"),
     ("descend", {"descend": {"y_size": 3}}, "descend.x_size")],
)
def test_size_field_is_required_on_countable_domains(tmp_path, capsys, command, section, field):
    """A field that defaults to the finite domain's size has no default on
    the naturals: leaving it out is one config error naming it."""
    path = write_config(tmp_path, {"schema": "emx-experiment/1", **NATURALS, **section})
    out = str(tmp_path / "out")
    assert main([command, path, "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"config error: {path}: {field} is required for countable domains\n"
    )
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "section, value, message",
    [("domain", {"kind": "naturals", "size": DOMAIN_SIZE_LIMIT + 1},
      f"domain.size of {DOMAIN_SIZE_LIMIT + 1} is above the {DOMAIN_SIZE_LIMIT} guard"),
     ("evaluate", {"m": [3, EVALUATE_M_LIMIT + 1, EVALUATE_M_LIMIT + 2], "epsilon": "1/4"},
      f"evaluate.m of {EVALUATE_M_LIMIT + 2} is above the {EVALUATE_M_LIMIT} guard"),
     ("verify", {"count": 5, "samples": EXHAUSTIVE_SUBSET_LIMIT + 1},
      f"verify.samples of {EXHAUSTIVE_SUBSET_LIMIT + 1} is above the {EXHAUSTIVE_SUBSET_LIMIT} "
      "guard")],
    ids=["domain.size", "evaluate.m", "verify.samples"],
)
def test_maximum_is_checked_at_load(tmp_path, capsys, section, value, message):
    """A value above its field's maximum stops a run at load, as one below
    its minimum does, also where the command would not read it: the size
    of a countable domain, evaluate.m in a verify config, verify.samples
    in an exhaustive verify. A list's error
    names its largest value."""
    config = {"schema": "emx-experiment/1", **NATURALS, "verify": {"count": 5}, section: value}
    path, out = write_config(tmp_path, config), str(tmp_path / "out")
    assert main(["verify", path, "--out", out]) == 2
    assert capsys.readouterr().err == f"config error: {path}: {message}\n"
    assert not os.path.exists(out)
