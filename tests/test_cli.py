import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import emx
import emx.cli
from emx.analysis import SearchProblem, counting_refutes
from emx.cli import SEARCH_SUBSET_LIMIT, main


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
        cfg = tank_eval_config(tmp_path, trials=100)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["evaluate", cfg, "--out", str(a)]) == 0
        assert main(["evaluate", cfg, "--out", str(b), "--seed", "99"]) == 0
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
            ({"confidence": 0}, "evaluate.confidence must be in (0, 1), got 0.0"),
            ({"m": [4, -1]}, "evaluate.m must be >= 0, got -1"),
            ({"trials": "many"}, "evaluate: invalid literal for int()"),
        ],
    )
    def test_bad_settings_exit_two_before_any_trial(self, tmp_path, monkeypatch, capsys,
                                                    setting, message):
        cfg = tank_eval_config(tmp_path, **setting)
        out = str(tmp_path / "out")

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


def read_all_outputs(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


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
