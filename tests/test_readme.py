"""Every `tensormin solve` command in README.md runs and exits 0."""

import shlex
from pathlib import Path

import pytest

from tensormin.cli import main
from tensormin.harness import bundled_dataset_path

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_solve_commands():
    """The `tensormin solve` lines of the README's bash blocks, with
    backslash continuations joined."""
    commands = []
    in_bash = False
    line_so_far = ""
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_bash = line.strip() == "```bash"
            continue
        if not in_bash or line.lstrip().startswith("#"):
            continue
        line_so_far += line.strip()
        if line_so_far.endswith("\\"):
            line_so_far = line_so_far[:-1].rstrip() + " "
            continue
        if line_so_far.startswith("tensormin solve"):
            commands.append(line_so_far)
        line_so_far = ""
    return commands


def test_readme_shows_solve_commands():
    assert len(readme_solve_commands()) >= 4


@pytest.mark.parametrize("command", readme_solve_commands())
def test_readme_command_exits_zero(command, tmp_path, monkeypatch):
    # The dataset example reads path/to/data.csv with a header row.
    data = tmp_path / "path" / "to" / "data.csv"
    data.parent.mkdir(parents=True)
    data.write_text("x1,x2,x3,label\n" + Path(bundled_dataset_path()).read_text())
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)[1:]) == 0
