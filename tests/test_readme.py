"""Every `emx` command in README's sh blocks runs as documented."""

import shlex
from pathlib import Path

import pytest

from emx.cli import main

ROOT = Path(__file__).resolve().parent.parent


def readme_commands() -> list[list[str]]:
    """The argv of each `emx ...` line in a sh block, without `emx`, its
    `--out DIR` and its trailing comment."""
    commands, in_sh = [], False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("emx "):
            argv = shlex.split(line, comments=True)[1:]
            if "--out" in argv:
                at = argv.index("--out")
                del argv[at:at + 2]
            commands.append(argv)
    return commands


COMMANDS = readme_commands()


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == {"verify", "evaluate", "search", "descend",
                                              "compress"}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exits_zero(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(ROOT)
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("flag", ["--seed", "--cap"])
def test_removed_evaluate_flags_exit_two(tmp_path, monkeypatch, capsys, flag):
    monkeypatch.chdir(ROOT)
    argv = ["evaluate", "configs/german_tank.json", "--out", str(tmp_path / "out"), flag, "1"]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
