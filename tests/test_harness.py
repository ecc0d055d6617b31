"""Experiment harness and CLI: dataset ingestion, sweeps, report formats,
exit codes."""

import io
import json
import re
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

import tensormin.harness as harness
from tensormin.cli import build_parser, main
from tensormin.harness import (
    RunConfig,
    bundled_dataset_path,
    load_dataset,
    run_experiment,
)
from tensormin.reports import (
    CSV_HEADER,
    FORMATS,
    RunReport,
    emit_report,
    parse_report_csv,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# -- dataset loading ---------------------------------------------------------------


def test_load_dataset_prepends_intercept(tmp_path):
    data = load_dataset(write(tmp_path, "d.csv", "1,0\n2,1\n"))
    assert np.array_equal(data.features, [[1.0, 1.0], [1.0, 2.0]])
    assert np.array_equal(data.labels, [0.0, 1.0])
    assert data.n_samples == 2
    assert data.dim == 2


def test_load_dataset_header_flag(tmp_path):
    plain = load_dataset(write(tmp_path, "a.csv", "1,0\n2,1\n"))
    headed = load_dataset(
        write(tmp_path, "b.csv", "feat,label\n1,0\n2,1\n"), has_header=True
    )
    assert np.array_equal(plain.features, headed.features)
    assert np.array_equal(plain.labels, headed.labels)


def test_load_dataset_skips_blank_lines(tmp_path):
    data = load_dataset(write(tmp_path, "d.csv", "1,0\n\n2,1\n\n"))
    assert data.n_samples == 2


# A nan feature on row 2 and an overflowing one (1e400 reads as inf) on row 3.
NON_FINITE_CSV = "1.0,2.0,1\nnan,0.5,0\n0.3,1e400,1\n"
# A Latin-1 byte pair where a UTF-8 reader expects a feature.
NON_UTF8_CSV = b"1.0,\xff\xfe,1\n"


def write_bytes(tmp_path, name, data):
    p = tmp_path / name
    p.write_bytes(data)
    return str(p)


def test_load_dataset_error_diagnostics(tmp_path):
    with pytest.raises(ValueError, match="row 2 label"):
        load_dataset(write(tmp_path, "lab.csv", "1,0\n1,2\n"))
    with pytest.raises(ValueError, match="row 2 has 3 columns, expected 2"):
        load_dataset(write(tmp_path, "rag.csv", "1,0\n1,2,0\n"))
    with pytest.raises(ValueError, match="row 1 contains a non-numeric cell"):
        load_dataset(write(tmp_path, "txt.csv", "one,0\n"))
    with pytest.raises(ValueError, match="^row 2 contains a non-numeric cell "
                       "in column 2: '1,5'$"):
        load_dataset(write(tmp_path, "comma.csv", '1,2,0\n3,"1,5",1\n'))
    with pytest.raises(ValueError, match="row 1 has 1 columns"):
        load_dataset(write(tmp_path, "thin.csv", "1\n0\n"))
    with pytest.raises(ValueError, match="no data rows"):
        load_dataset(write(tmp_path, "empty.csv", "\n\n"))
    with pytest.raises(ValueError, match="row 2 contains a non-finite cell"):
        load_dataset(write(tmp_path, "nan.csv", NON_FINITE_CSV))
    with pytest.raises(ValueError, match="row 1 contains a non-finite cell"):
        load_dataset(write(tmp_path, "inf.csv", NON_FINITE_CSV.split("\n", 2)[2]))
    with pytest.raises(ValueError, match="is not UTF-8 text .*byte 0xff"):
        load_dataset(write_bytes(tmp_path, "latin1.csv", NON_UTF8_CSV))


def test_load_dataset_ignores_a_utf8_byte_order_mark(tmp_path):
    # Spreadsheet "CSV UTF-8" exports start with the mark EF BB BF.
    text = "feat,label\n1.5,0\n2,1\n"
    plain = load_dataset(write(tmp_path, "plain.csv", text), has_header=True)
    bom = b"\xef\xbb\xbf"
    for name, data in (("bom.csv", bom + text.encode()),
                       ("bom_noheader.csv", bom + text.split("\n", 1)[1].encode())):
        marked = load_dataset(write_bytes(tmp_path, name, data),
                              has_header=name == "bom.csv")
        assert np.array_equal(marked.features, plain.features)
        assert np.array_equal(marked.labels, plain.labels)
    # Offsets of undecodable bytes still count from the file's first byte.
    with pytest.raises(ValueError, match="byte 0xff at offset 7"):
        load_dataset(write_bytes(tmp_path, "bom_latin1.csv", bom + NON_UTF8_CSV))


def test_bundled_dataset_loads():
    data = load_dataset(bundled_dataset_path())
    assert data.features.shape == (100, 4)
    assert np.array_equal(data.features[:, 0], np.ones(100))
    assert set(np.unique(data.labels)) <= {0.0, 1.0}


# -- run configuration ----------------------------------------------------------------


def test_run_config_validation():
    RunConfig(problem="logistic")  # bundled dataset fills in
    RunConfig(problem="quartic", n=3)
    with pytest.raises(ValueError):
        RunConfig(problem="ridge")
    with pytest.raises(ValueError):
        RunConfig(problem="quartic", n=2, solver="newton")
    with pytest.raises(ValueError):
        RunConfig(problem="quartic", n=2, epsilons=[])
    with pytest.raises(ValueError):
        RunConfig(problem="quartic", n=2, epsilons=[1e-2, 0.0])
    with pytest.raises(ValueError):
        RunConfig(problem="quartic", n=2, m0=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="m0 must be finite and positive"):
            RunConfig(problem="quartic", n=2, m0=bad)
        with pytest.raises(ValueError,
                           match=r"epsilons\[1\] must be finite and positive"):
            RunConfig(problem="quartic", n=2, epsilons=[1e-2, bad])
    with pytest.raises(ValueError):
        RunConfig(problem="quartic")  # missing dimension
    # A dimension is an integer; int() used to make 2.7 a 2 and True a 1.
    for bad in (2.7, 2.0, True, "2", 0):
        with pytest.raises(ValueError, match="n must be at least 1 and an "
                           "integer, got %s" % re.escape(repr(bad))):
            RunConfig(problem="quartic", n=bad)
    with pytest.raises(ValueError, match="n only applies to the quartic "
                       "problem, got 7"):
        RunConfig(problem="logistic", n=7)
    with pytest.raises(ValueError, match="x0 must be 'ones' or 'zeros', "
                       "got 'ONES'"):
        RunConfig(problem="logistic", x0="ONES")
    # x0 is a policy, as on the command line; a vector is refused at once.
    with pytest.raises(ValueError, match=re.escape(
            "x0 must be 'ones' or 'zeros', got array([0., 0.])")):
        RunConfig(problem="quartic", n=2, x0=np.zeros(2))
    with pytest.raises(ValueError, match="epsilons must be a non-empty list"):
        RunConfig(problem="quartic", n=2, epsilons=1e-6)
    with pytest.raises(ValueError):
        RunConfig(problem="quartic", n=2, dataset_path="x.csv")
    with pytest.raises(ValueError, match="has_header only appl"):
        RunConfig(problem="quartic", n=2, has_header=True)
    with pytest.raises(ValueError):
        RunConfig(problem="quartic", n=2, fd_tau=0.0)
    for name in ("max_outer", "max_inner"):
        for bad in (0, -1, 2.5, 3.0):
            match = "%s must be at least 1 and an integer, got %s" % (
                name, re.escape(repr(bad)))
            with pytest.raises(ValueError, match=match):
                RunConfig(problem="quartic", n=2, **{name: bad})
    RunConfig(problem="quartic", n=2, max_outer=np.int64(3), max_inner=1)


# -- experiment sweeps ------------------------------------------------------------------


def test_experiment_quartic_basic_sweep_reaches_targets():
    eps = [1e-2, 1e-4, 1e-6, 1e-8]
    reports = run_experiment(RunConfig(problem="quartic", n=2, epsilons=eps))
    assert [r.epsilon for r in reports] == eps
    for r, e in zip(reports, eps):
        assert r.converged is True
        assert r.final_grad_norm <= e
        assert r.BGM_E >= r.IT
        assert abs(r.BGM_A * r.BGM_E - r.BGM_IT) <= 1e-9 * max(1, r.BGM_IT)
    its = [r.IT for r in reports]
    inner = [r.BGM_IT for r in reports]
    assert its == sorted(its)
    assert inner == sorted(inner)


def test_experiment_accel_sweep_cost_grows_with_accuracy():
    reports = run_experiment(
        RunConfig(problem="quartic", n=2, solver="accel", epsilons=[1e-1, 1e-2, 1e-3])
    )
    assert all(r.converged for r in reports)
    its = [r.IT for r in reports]
    assert its == sorted(its)
    assert [r.BGM_IT for r in reports] == sorted(r.BGM_IT for r in reports)


def test_experiment_fresh_counters_per_accuracy():
    reports = run_experiment(
        RunConfig(problem="quartic", n=2, epsilons=[1e-2, 1e-2])
    )
    a, b = reports
    assert (a.IT, a.CO, a.BGM_E, a.BGM_IT) == (b.IT, b.CO, b.BGM_E, b.BGM_IT)
    assert a.final_f == b.final_f


def test_experiment_logistic_bundled_dataset():
    reports = run_experiment(
        RunConfig(problem="logistic", epsilons=[1e-2, 1e-4])
    )
    for r in reports:
        assert r.converged is True
        assert r.final_grad_norm <= r.epsilon
        assert 1.0 <= r.BGM_A <= 30.0


def test_experiment_bundled_dataset_paper_counters():
    # The paper's protocol (x0 = ones, m0 = 1) on the bundled set pins the
    # exact (IT, CO, BGM_E, BGM_IT) so refactors of the outer loops cannot
    # change the work done without this test noticing.
    expected = {
        "basic": [
            (1e-2, (3, 44, 3, 33)),
            (1e-4, (3, 56, 3, 45)),
            (1e-6, (4, 75, 4, 61)),
            (1e-8, (4, 86, 4, 72)),
        ],
        "accel": [
            (1e-2, (3, 66, 5, 48)),
            (1e-4, (3, 78, 5, 60)),
            (1e-6, (4, 111, 7, 86)),
            (1e-8, (4, 122, 7, 97)),
        ],
    }
    for solver, cases in expected.items():
        reports = run_experiment(RunConfig(
            problem="logistic", solver=solver, x0="ones", m0=1.0,
            epsilons=[eps for eps, _ in cases],
        ))
        got = [(r.epsilon, (r.IT, r.CO, r.BGM_E, r.BGM_IT)) for r in reports]
        assert got == cases, solver
        assert all(r.converged for r in reports)


def test_experiment_reads_the_dataset_once_per_sweep(monkeypatch):
    # One load and one oracle per call; each report counts only its own
    # run's calls on it.
    loads, seen = [], []
    real_load, real_solver = harness.load_dataset, harness.run_basic

    def load(*args, **kwargs):
        loads.append(args)
        return real_load(*args, **kwargs)

    def solver(oracle, *args, **kwargs):
        seen.append((oracle, oracle.calls.total()))
        return real_solver(oracle, *args, **kwargs)

    monkeypatch.setattr(harness, "load_dataset", load)
    monkeypatch.setattr(harness, "run_basic", solver)
    reports = run_experiment(RunConfig(
        problem="logistic", epsilons=[1e-2, 1e-3, 1e-4, 1e-5], fd_tau=1e-4,
    ))
    assert len(reports) == 4 and all(r.converged for r in reports)
    assert len(loads) == 1
    assert len({id(oracle) for oracle, _ in seen}) == 1
    before = [sum(r.CO for r in reports[:k]) for k in range(len(reports))]
    assert [total for _, total in seen] == before
    assert seen[0][0].calls.total() == sum(r.CO for r in reports)


def test_experiment_errors_annotated_with_accuracy(tmp_path, monkeypatch):
    cfg = RunConfig(
        problem="logistic",
        dataset_path=str(tmp_path / "missing.csv"),
        epsilons=[1e-2],
    )
    with pytest.raises(OSError, match="epsilon=0.01"):
        run_experiment(cfg)
    malformed = tmp_path / "malformed.csv"
    malformed.write_text("1.0,0\n2.0,3\n")
    with pytest.raises(ValueError, match="^epsilon=0.01: row 2 label "):
        run_experiment(RunConfig(problem="logistic", dataset_path=str(malformed),
                                 epsilons=[1e-2]))
    # UnicodeDecodeError's constructor takes five arguments, so no annotated
    # copy can be built: the original is re-raised with the accuracy added
    # as a note.
    original = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    def fail(*args, **kwargs):
        raise original

    monkeypatch.setattr(harness, "load_dataset", fail)
    with pytest.raises(UnicodeDecodeError) as info:
        run_experiment(RunConfig(problem="logistic", epsilons=[1e-2]))
    assert info.value is original
    assert info.value.__notes__ == ["epsilon=0.01: %s" % original]


def test_experiment_start_point_policies():
    zeros = run_experiment(
        RunConfig(problem="quartic", n=3, x0="zeros", epsilons=[1e-6])
    )[0]
    assert zeros.IT == 1  # stationary start


def test_experiment_runs_are_deterministic():
    cfg = dict(problem="quartic", n=3, epsilons=[1e-4])
    a = run_experiment(RunConfig(**cfg))[0]
    b = run_experiment(RunConfig(**cfg))[0]
    assert (a.IT, a.CO, a.BGM_E, a.BGM_IT, a.final_grad_norm, a.final_f) == (
        b.IT, b.CO, b.BGM_E, b.BGM_IT, b.final_grad_norm, b.final_f
    )


def test_experiment_finite_difference_mode():
    report = run_experiment(
        RunConfig(problem="quartic", n=2, fd_tau=1e-4, epsilons=[1e-4])
    )[0]
    assert report.converged is True
    assert report.final_grad_norm <= 1e-4


def test_experiment_trace_rows_tagged_with_accuracy():
    rows = []
    run_experiment(
        RunConfig(problem="quartic", n=2, epsilons=[1e-2, 1e-3]),
        trace_sink=rows.append,
    )
    assert rows
    assert {r["epsilon"] for r in rows} == {1e-2, 1e-3}
    kinds = {r["kind"] for r in rows}
    assert kinds == {"outer", "inner"}


# -- report emission ----------------------------------------------------------------------


def sample_report():
    return RunReport(
        epsilon=1e-2, IT=4, CO=20, BGM_E=5, BGM_IT=62,
        final_grad_norm=0.009, final_f=1.5, wall_time_s=0.01,
    )


def test_emit_report_table_layout():
    sink = io.StringIO()
    # Epsilon prints in the shortest form that reads back exactly.
    reports = [sample_report(), replace(sample_report(), epsilon=1.5e-3)]
    text = emit_report(reports, format="table", sink=sink)
    assert text == sink.getvalue()
    lines = text.splitlines()
    assert lines[0] == "epsilon  IT  CO  BGM-E  BGM-IT    BGM-A  converged"
    assert lines[1] == "  1e-02   4  20      5      62  12.4000       True"
    assert lines[2] == "1.5e-03   4  20      5      62  12.4000       True"


def test_emit_report_csv_layout_and_round_trip():
    sink = io.StringIO()
    text = emit_report([sample_report()], format="csv", sink=sink)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1] == "0.01,4,20,5,62,12.4000,0.009,1.5,0.01,True"

    # Round-trip through the parser: every field reproduces exactly.
    converged = RunReport(
        epsilon=1e-6, IT=13, CO=77, BGM_E=14, BGM_IT=201,
        final_grad_norm=3.4e-7, final_f=62.0884421, wall_time_s=0.1234,
    )
    capped = RunReport(
        epsilon=1e-8, IT=2, CO=31, BGM_E=3, BGM_IT=40,
        final_grad_norm=2.5e-3, final_f=1.75, wall_time_s=0.02, converged=False,
    )
    originals = [converged, capped]
    back = parse_report_csv(emit_report(originals, format="csv", sink=io.StringIO()))
    assert len(back) == 2
    for r, original in zip(back, originals):
        assert (r.epsilon, r.IT, r.CO, r.BGM_E, r.BGM_IT) == (
            original.epsilon, original.IT, original.CO, original.BGM_E, original.BGM_IT
        )
        assert r.final_grad_norm == original.final_grad_norm
        assert r.final_f == original.final_f
        assert r.wall_time_s == original.wall_time_s
        assert r.converged is original.converged
        assert r.BGM_A == original.BGM_A
    assert back == originals


def test_parse_report_csv_rejects_inconsistent_rows():
    good = emit_report([sample_report()], format="csv", sink=io.StringIO())
    header, row = good.splitlines()
    # BGM_A is derived from BGM_IT / BGM_E; a cell that disagrees is refused.
    bad = header + "\n" + row.replace("12.4000", "12.5000") + "\n"
    with pytest.raises(ValueError, match="row 2: BGM_A 12.5000 disagrees"):
        parse_report_csv(bad)
    with pytest.raises(ValueError, match="unexpected CSV header"):
        parse_report_csv(header.replace("CO", "calls") + "\n" + row + "\n")
    with pytest.raises(ValueError, match="row 2 has 9 columns, expected 10"):
        parse_report_csv(header + "\n" + row.rsplit(",", 1)[0] + "\n")
    with pytest.raises(ValueError, match="converged must be True or False"):
        parse_report_csv(header + "\n" + row.replace("True", "yes") + "\n")
    # A numeric cell that does not parse names its row and column.
    cells = row.split(",")
    cells[CSV_HEADER.index("CO")] = "many"
    with pytest.raises(ValueError, match="row 2: CO must be int, got 'many'"):
        parse_report_csv(header + "\n" + ",".join(cells) + "\n")
    # No iterations at all: BGM_A is 0.0, and round-trips as such.
    empty = RunReport(epsilon=1e-2, IT=0, CO=2, BGM_E=0, BGM_IT=0,
                      final_grad_norm=1.0, final_f=2.0, wall_time_s=0.0,
                      converged=False)
    assert empty.BGM_A == 0.0
    text = emit_report([empty], format="csv", sink=io.StringIO())
    assert parse_report_csv(text) == [empty]
    # Blank rows between reports are skipped.
    assert parse_report_csv(text + "\n" + row + "\n\n") == [empty,
                                                            sample_report()]


def test_emit_report_json_lines_and_alias():
    text = emit_report([sample_report()], format="jsonl", sink=io.StringIO())
    record = json.loads(text.splitlines()[0])
    assert record["epsilon"] == 1e-2
    assert record["IT"] == 4
    assert record["BGM_A"] == 12.4
    # The former alias is no longer an accepted format value.
    with pytest.raises(ValueError):
        emit_report([sample_report()], format="json-lines", sink=io.StringIO())


def test_emit_report_rejects_bad_calls():
    with pytest.raises(ValueError):
        emit_report([], format="table", sink=io.StringIO())
    with pytest.raises(ValueError):
        emit_report([sample_report()], format="yaml", sink=io.StringIO())


# -- command-line interface ---------------------------------------------------------------


def test_cli_quartic_csv_report(tmp_path):
    out = tmp_path / "report.csv"
    code = main([
        "solve", "--problem", "quartic", "--n", "2", "--solver", "basic",
        "--eps", "1e-2,1e-4", "--format", "csv", "--out", str(out),
    ])
    assert code == 0
    reports = parse_report_csv(out.read_text())
    assert [r.epsilon for r in reports] == [1e-2, 1e-4]
    assert all(r.final_grad_norm <= r.epsilon for r in reports)


def test_cli_table_to_stdout(capsys):
    code = main([
        "solve", "--problem", "quartic", "--n", "2", "--solver", "accel",
        "--eps", "1e-1",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["epsilon", "IT", "CO", "BGM-E", "BGM-IT", "BGM-A",
                                "converged"]
    assert lines[1].split()[-1] == "True"
    assert len(lines) == 2


def test_cli_exit_two_when_cap_hit(tmp_path):
    code = main([
        "solve", "--problem", "quartic", "--n", "2", "--solver", "basic",
        "--eps", "1e-10", "--max-inner", "1",
        "--format", "csv", "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 2


def test_cli_usage_and_io_errors_exit_one(tmp_path, capsys):
    assert main(["solve", "--problem", "quartic", "--n", "2",
                 "--solver", "basic"]) == 1  # missing --eps
    assert main(["solve", "--problem", "quartic", "--n", "2",
                 "--solver", "basic", "--eps", "abc"]) == 1
    assert main(["solve", "--problem", "quartic", "--n", "2",
                 "--solver", "basic", "--eps", ","]) == 1
    assert "no accuracies given" in capsys.readouterr().err
    assert main(["solve", "--problem", "quartic",
                 "--solver", "basic", "--eps", "1e-2"]) == 1  # missing --n
    assert main(["solve", "--problem", "logistic", "--solver", "basic",
                 "--eps", "1e-2", "--dataset",
                 str(tmp_path / "nope.csv")]) == 1
    capsys.readouterr()  # drain the error messages
    # A typed run failure: tau^2 underflows, so the third derivative is NaN.
    assert main(["solve", "--problem", "quartic", "--n", "2",
                 "--solver", "basic", "--eps", "1e-6",
                 "--fd-tau", "1e-200"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tensormin: error:")
    assert err.count("\n") == 1
    assert "third_directional (tau=1e-200)" in err
    # A bad cap fails before the run instead of ending it unconverged.
    assert main(["solve", "--problem", "quartic", "--n", "2",
                 "--solver", "basic", "--eps", "1e-6",
                 "--max-outer", "-1"]) == 1
    err = capsys.readouterr().err
    assert err == "tensormin: error: max_outer must be at least 1 and an " \
                  "integer, got -1\n"
    # Arithmetic failing at an extreme level is a typed failure too.
    assert main(["solve", "--problem", "quartic", "--n", "2",
                 "--solver", "accel", "--eps", "1e-6", "--m0", "1e300"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tensormin: error: epsilon=1e-06: outer step t=0")
    assert err.count("\n") == 1
    assert "level M = " in err
    # So is a weight equation with no representable root.
    assert main(["solve", "--problem", "quartic", "--n", "2",
                 "--solver", "accel", "--eps", "1e-6", "--m0", "5e-324"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tensormin: error: epsilon=1e-06: outer step t=0, "
                          "level index i=1, level M = 9.881e-324: "
                          "weight-equation scale")
    assert err.count("\n") == 1


def test_cli_format_choices_are_the_report_formats(capsys):
    assert main(["solve", "--help"]) == 0
    usage = capsys.readouterr().out
    choices = re.search(r"--format \{([^}]*)\}", usage).group(1)
    assert tuple(choices.split(",")) == FORMATS


def test_cli_choices_and_defaults_are_run_configs(capsys):
    assert main(["solve", "--help"]) == 0
    usage = " ".join(capsys.readouterr().out.split())
    for flag, valid in (("--problem", RunConfig.PROBLEMS),
                        ("--solver", RunConfig.SOLVERS),
                        ("--x0", RunConfig.X0_POLICIES)):
        choices = re.search(r"%s \{([^}]*)\}" % flag, usage).group(1)
        assert tuple(choices.split(",")) == valid
    for flag, name in (("--m0 M0", "m0"), ("--x0 {ones,zeros}", "x0"),
                       ("--max-outer MAX_OUTER", "max_outer"),
                       ("--max-inner MAX_INNER", "max_inner")):
        assert re.search(r"%s [^-]*\(default %s\)" % (
            re.escape(flag), re.escape(str(getattr(RunConfig, name)))), usage)
    args = build_parser().parse_args(["solve", "--problem", "quartic",
                                      "--solver", "basic", "--eps", "1"])
    for f in fields(RunConfig):
        if f.default is not MISSING:
            assert getattr(args, f.name) == f.default, f.name


def test_cli_non_finite_dataset_cell_exits_one(tmp_path, capsys):
    code = main(["solve", "--problem", "logistic", "--solver", "basic",
                 "--eps", "1e-2", "--dataset",
                 write(tmp_path, "bad.csv", NON_FINITE_CSV)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("tensormin: error:")
    assert "row 2 contains a non-finite cell" in err

    code = main(["solve", "--problem", "logistic", "--solver", "basic",
                 "--eps", "1e-2", "--dataset",
                 write_bytes(tmp_path, "latin1.csv", NON_UTF8_CSV)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("tensormin: error:")
    assert err.count("\n") == 1
    assert "is not UTF-8 text" in err


@pytest.mark.parametrize("flag", ["--eps", "--m0", "--fd-tau"])
@pytest.mark.parametrize("bad", ["nan", "inf", "0", "-1"])
def test_cli_nonfinite_or_nonpositive_parameters_exit_one(flag, bad, capsys):
    argv = ["solve", "--problem", "quartic", "--n", "2", "--solver", "basic",
            "--eps", "1e-2"]
    code = main(argv + [flag, bad])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("tensormin: error:")
    assert "finite and positive" in err


def test_cli_zero_start_immediate_success(tmp_path):
    out = tmp_path / "r.csv"
    code = main([
        "solve", "--problem", "quartic", "--n", "4", "--solver", "accel",
        "--eps", "1e-8", "--x0", "zeros", "--format", "csv", "--out", str(out),
    ])
    assert code == 0
    assert parse_report_csv(out.read_text())[0].IT == 1


def test_cli_trace_stream_is_json_lines(tmp_path):
    trace = tmp_path / "trace.jsonl"
    code = main([
        "solve", "--problem", "quartic", "--n", "2", "--solver", "basic",
        "--eps", "1e-3", "--trace", str(trace),
        "--format", "csv", "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 0
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    assert rows
    kinds = {r["kind"] for r in rows}
    assert kinds == {"outer", "inner"}
    for r in rows:
        assert r["epsilon"] == 1e-3
        if r["kind"] == "inner":
            assert {"k", "model_grad_norm", "step_norm", "slow_rhs"} <= set(r)
    evaluated = [r for r in rows if r["kind"] == "outer" and "x_trial" in r]
    assert evaluated
    assert all(isinstance(r["x_trial"], list) for r in evaluated)


def test_cli_finite_difference_flag(tmp_path):
    code = main([
        "solve", "--problem", "quartic", "--n", "2", "--solver", "basic",
        "--eps", "1e-4", "--fd-tau", "1e-4",
        "--format", "csv", "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 0
