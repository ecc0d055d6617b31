"""The README's code runs: its Python quick start, and every `tensormin solve`
command, which must exit 0; and `--trace` writes the lines its schema
describes."""

import json
import shlex
from pathlib import Path

import pytest

from conftest import EVALUATED, README, check_run, pinned
from tensormin.accel import run_accel
from tensormin.basic import run_basic
from tensormin.cli import main
from tensormin.harness import bundled_dataset_path
from tensormin.reports import parse_report_csv


def readme_blocks(language):
    """The lines of each fenced README block tagged ``language``."""
    blocks = []
    block = None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            if block is not None:
                blocks.append(block)
                block = None
            elif line.strip() == "```" + language:
                block = []
            continue
        if block is not None:
            block.append(line)
    return blocks


def readme_solve_commands():
    """The `tensormin solve` lines of the README's bash blocks, with
    backslash continuations joined."""
    commands = []
    line_so_far = ""
    for block in readme_blocks("bash"):
        for line in block:
            if line.lstrip().startswith("#"):
                continue
            line_so_far += line.strip()
            if line_so_far.endswith("\\"):
                line_so_far = line_so_far[:-1].rstrip() + " "
                continue
            if line_so_far.startswith("tensormin solve"):
                commands.append(line_so_far)
            line_so_far = ""
    return commands


def test_readme_python_quick_start_runs(capsys):
    blocks = readme_blocks("python")
    assert blocks
    for block in blocks:
        exec(compile("\n".join(block), str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


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


@pytest.mark.parametrize("solver", ["basic", "accel"])
def test_trace_lines_have_the_documented_keys(solver, tmp_path):
    # check_run holds each line to the schema; this run shows every kind
    # of outer line.
    trace, out = tmp_path / "trace.jsonl", tmp_path / "r.csv"
    assert main(["solve", "--problem", "quartic", "--n", "3", "--solver", solver,
                 "--eps", "1e-6", "--m0", "0.01", "--trace", str(trace),
                 "--format", "csv", "--out", str(out)]) == 0
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    loop = {"basic": run_basic, "accel": run_accel}[solver]
    check_run(lines, pinned("quartic3-m0-0.01", loop),
              parse_report_csv(out.read_text())[0])
    seen = {(line["stop_reason"] in EVALUATED, line["accepted"],
             "companion" in line) for line in lines if line["kind"] == "outer"}
    # Slow-convergence, rejected and accepted trials all occurred, and under
    # accel a companion step that won.
    assert {(False, False, False), (True, False, False),
            (True, True, False)} <= seen
    assert ((True, True, True) in seen) == (solver == "accel")
