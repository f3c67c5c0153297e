import contextlib
import csv
import io
import json

import pytest
from hypothesis import given

from dagsched import bench as bench_mod
from dagsched import cli as cli_mod
from dagsched import ga
from dagsched.cli import main
from dagsched.dagio import GenSpec, generate_random_dag, parse_dag, parse_platform
from dagsched.evaluator import CommMode
from dagsched.minmin import min_min_schedule

from conftest import REF_EDGES, REF_WORKS, documents


def write_ref_dag(path):
    doc = {
        "tasks": [{"id": f"t{i}", "name": f"job{i}", "work": REF_WORKS[i - 1]}
                  for i in range(1, 11)],
        "edges": [{"src": f"t{a}", "dst": f"t{b}", "bytes": 2} for a, b in REF_EDGES],
    }
    path.write_text(json.dumps(doc))


def write_platform(path, n=2):
    doc = {
        "machines": [{"id": f"m{i}", "name": f"Machine{i}", "speed": 1} for i in range(1, n + 1)],
        "default_link": {"bandwidth": 10, "latency": 0},
    }
    path.write_text(json.dumps(doc))


@pytest.fixture
def ref_paths(tmp_path):
    dag = tmp_path / "dag.json"
    plt = tmp_path / "platform.json"
    write_ref_dag(dag)
    write_platform(plt)
    return str(dag), str(plt)


class TestValidate:
    def test_ok(self, ref_paths, capsys):
        assert main(["validate", *ref_paths]) == 0
        out = capsys.readouterr().out
        assert "10 tasks, 2 machines, entry=job1, exit=job10" in out

    def test_cycle_reported(self, tmp_path, capsys):
        dag = tmp_path / "bad.json"
        dag.write_text(json.dumps({
            "tasks": [{"id": "a", "work": 1}, {"id": "b", "work": 1}],
            "edges": [{"src": "a", "dst": "b"}, {"src": "b", "dst": "a"}],
        }))
        plt = tmp_path / "p.json"
        write_platform(plt)
        assert main(["validate", str(dag), str(plt)]) != 0
        assert "cycle" in capsys.readouterr().err

    def test_name_holding_a_comma_is_quoted(self, tmp_path, capsys):
        # unquoted, the entry list read "x on Machine2,p,q": three names or two?
        dag, plt = tmp_path / "dag.json", tmp_path / "p.json"
        dag.write_text(json.dumps({"tasks": [{"id": "a", "name": "x on Machine2", "work": 1},
                                             {"id": "b", "name": "p,q", "work": 1}]}))
        write_platform(plt, n=1)
        assert main(["validate", str(dag), str(plt)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == \
            '2 tasks, 1 machines, entry=x on Machine2,"p,q", exit=x on Machine2,"p,q"'

    def test_missing_file(self, tmp_path, capsys):
        plt = tmp_path / "p.json"
        write_platform(plt)
        missing = str(tmp_path / "nope.json")
        assert main(["validate", missing, str(plt)]) != 0
        assert capsys.readouterr().err == f"error: cannot read {missing}: No such file or directory\n"

    def test_not_utf8(self, tmp_path, capsys):
        dag = tmp_path / "latin1.json"
        dag.write_bytes(b'{"tasks": [{"id": "\xe9", "work": 1}]}')
        assert main(["heights", str(dag)]) == 1
        assert capsys.readouterr().err == f"error: cannot read {dag}: not UTF-8 text (invalid continuation byte at byte 19)\n"


class TestHeights:
    def test_reference_table(self, ref_paths, capsys):
        assert main(["heights", ref_paths[0]]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert [int(h) for _, h in rows] == [1, 2, 2, 2, 4, 3, 4, 3, 5, 6]

    def test_single_task(self, tmp_path, capsys):
        dag = tmp_path / "one.json"
        dag.write_text(json.dumps({"tasks": [{"id": "a", "name": "solo", "work": 3}]}))
        assert main(["heights", str(dag)]) == 0
        assert capsys.readouterr().out == "solo\t1\n"


class TestSchedule:
    def test_minmin_single_task(self, tmp_path, capsys):
        dag = tmp_path / "one.json"
        dag.write_text(json.dumps({"tasks": [{"id": "a", "name": "job1", "work": 3}]}))
        plt = tmp_path / "p.json"
        write_platform(plt, n=1)
        log = tmp_path / "out.log"
        assert main(["schedule", str(dag), str(plt), "--alg", "minmin", "--out", str(log)]) == 0
        assert log.read_text() == "Schedule job1 on Machine1\nSimulation Time: 3.000000\n"

    def test_name_holding_the_separator_is_quoted(self, tmp_path, capsys):
        # unquoted, "Schedule x on Machine2 on Machine1" does not say which machine ran the task
        dag = tmp_path / "one.json"
        dag.write_text(json.dumps({"tasks": [{"id": "a", "name": "x on Machine2", "work": 3}]}))
        plt = tmp_path / "p.json"
        write_platform(plt, n=1)
        assert main(["schedule", str(dag), str(plt), "--alg", "minmin"]) == 0
        assert capsys.readouterr().out == \
            'makespan: 3.000000\nSchedule "x on Machine2" on Machine1\nSimulation Time: 3.000000\n'

    def test_ga_deterministic_logs(self, ref_paths, tmp_path, capsys):
        logs = []
        for name in ("a.log", "b.log"):
            log = tmp_path / name
            args = ["schedule", *ref_paths, "--alg", "ga", "--seed", "7",
                    "--pop", "20", "--iters", "10", "--out", str(log)]
            assert main(args) == 0
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]

    def test_ga_beats_or_ties_minmin_on_oracle_instance(self, ref_paths, tmp_path, capsys):
        log = tmp_path / "x.log"
        makespans = {}
        for alg in ("ga", "minmin"):
            assert main(["schedule", *ref_paths, "--alg", alg, "--seed", "1",
                         "--out", str(log)]) == 0
            out = capsys.readouterr().out
            makespans[alg] = float(out.splitlines()[0].split(":")[1])
        assert makespans["ga"] <= makespans["minmin"] + 1e-9

    @pytest.mark.parametrize("flag, mode", [("order", ga.CrossoverMode.ORDER_PRESERVING),
                                            ("aligned", ga.CrossoverMode.TASK_ALIGNED)])
    def test_crossover_flag(self, ref_paths, monkeypatch, capsys, flag, mode):
        seen = []

        def spy(g, p, cfg, comm):
            seen.append(cfg.crossover_mode)
            return ga.run(g, p, cfg, comm)

        monkeypatch.setattr(cli_mod, "run", spy)
        argv = ["schedule", *ref_paths, "--seed", "3", "--pop", "10", "--iters", "5", "--crossover", flag]
        assert main(argv) == 0
        assert seen == [mode]
        out = capsys.readouterr().out
        assert out.startswith("makespan: ") and "Simulation Time: " in out


class TestCommFlag:
    def test_schedule_off_ignores_transfers(self, tmp_path, capsys):
        dag = tmp_path / "dag.json"
        write_ref_dag(dag)
        slow = tmp_path / "slow.json"  # 2 bytes at bandwidth 0.1 take 20, about a task's work
        slow.write_text(json.dumps({"machines": [{"id": "m1", "speed": 1}, {"id": "m2", "speed": 1}],
                                    "default_link": {"bandwidth": 0.1}}))
        g, p = parse_dag(dag.read_text()), parse_platform(slow.read_text())
        makespans = {mode: min_min_schedule(g, p, mode)[1].makespan for mode in CommMode}
        assert makespans[CommMode.IGNORE_TRANSFER] != makespans[CommMode.INCLUDE_TRANSFER]  # the flag shows
        for flag, mode in (("off", CommMode.IGNORE_TRANSFER), ("on", CommMode.INCLUDE_TRANSFER)):
            assert main(["schedule", str(dag), str(slow), "--alg", "minmin", "--comm", flag]) == 0
            assert capsys.readouterr().out.splitlines()[0] == f"makespan: {makespans[mode]:.6f}"

    def test_bench_off_writes_ignore(self, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        assert main(["bench", "--shapes", "10x2", "--seeds", "1", "--comm", "off", "--out", str(out_csv)]) == 0
        (row,) = csv.DictReader(out_csv.read_text().splitlines())
        assert row["comm_mode"] == "ignore"

    @pytest.mark.parametrize("command", ["schedule", "bench"])
    def test_help_describes_comm(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--comm {on,off} include data-transfer time in start times" in " ".join(capsys.readouterr().out.split())


class TestGaFlagDefaults:
    @pytest.mark.parametrize("argv", [["schedule", "d.json", "p.json"], ["bench"]])
    def test_parser_defaults_are_ga_configs(self, argv):
        args = cli_mod.build_parser().parse_args(argv)
        rng_seed = args.seed if argv[0] == "schedule" else ga.GaConfig.rng_seed
        assert cli_mod._ga_config(args, rng_seed) == ga.GaConfig()


class TestBench:
    def test_single_cell(self, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        args = ["bench", "--shapes", "10x2", "--seeds", "1", "--out", str(out_csv)]
        assert main(args) == 0
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("instance,")
        summary = capsys.readouterr().out
        assert "GA <= min-min on" in summary

    def test_bad_shape(self, tmp_path, capsys):
        assert main(["bench", "--shapes", "10by2", "--out", str(tmp_path / "b.csv")]) != 0

    def test_seed_flag_rejected(self, tmp_path, capsys):
        # every cell is seeded from the grid, so a --seed would have no effect
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--shapes", "10x2", "--seed", "3", "--out", str(tmp_path / "b.csv")])
        assert exc.value.code == 2


class TestErrorsReported:
    """Bad input ends in a one-line `error:` on stderr and exit status 1."""

    def assert_one_line_error(self, capsys, argv, fragment):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert fragment in captured.err

    def test_duplicate_machine_id(self, ref_paths, tmp_path, capsys):
        plt = tmp_path / "dup.json"
        plt.write_text(json.dumps({"machines": [{"id": "m1", "speed": 1}, {"id": "m1", "speed": 2}]}))
        self.assert_one_line_error(capsys, ["validate", ref_paths[0], str(plt)],
                                   "duplicate machine id 'm1'")

    @pytest.mark.parametrize("command", ["validate", "schedule"])
    def test_etc_row_for_a_task_the_dag_lacks(self, ref_paths, tmp_path, capsys, command):
        etc = {f"t{i}": {"m1": 1.0} for i in range(1, 11)}
        plt = tmp_path / "etc.json"
        plt.write_text(json.dumps({"machines": [{"id": "m1", "speed": 1}], "etc": {**etc, "zz": {"m1": 1.0}}}))
        self.assert_one_line_error(capsys, [command, ref_paths[0], str(plt)], "etc row names task 'zz'")
        plt.write_text(json.dumps({"machines": [{"id": "m1", "speed": 1}], "etc": etc}))
        assert main([command, ref_paths[0], str(plt)]) == 0

    @pytest.mark.parametrize("which, text", [
        ("dag", "[" * 200_000),
        ("platform", "[" * 200_000),
        ("dag", '{"tasks": [{"id": "a", "work": %s}]}' % ("9" * 5000)),
    ], ids=["deep-dag", "deep-platform", "huge-int"])
    def test_document_past_the_parser_limits(self, ref_paths, tmp_path, capsys, which, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        paths = [str(bad), ref_paths[1]] if which == "dag" else [ref_paths[0], str(bad)]
        self.assert_one_line_error(capsys, ["validate", *paths], f"{bad}: ")

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_bench_needs_a_seed(self, tmp_path, capsys, seeds):
        out_csv = tmp_path / "x.csv"
        self.assert_one_line_error(capsys, ["bench", "--shapes", "10x2", "--seeds", seeds, "--out", str(out_csv)],
                                   "--seeds must be >= 1")
        assert not out_csv.exists()

    @pytest.mark.parametrize("flags, fragment", [
        (["--shapes", ""], "bad shape ''"),
        (["--shapes", "0x2"], "bad shape '0x2': counts must be >= 1"),
        (["--shapes", "10x2,10x2"], "shape '10x2' repeats 10x2"),
        (["--shapes", "10x2,25x7,10X2"], "shape '10X2' repeats 10x2"),
        (["--pop", "1"], "pop_size must be >= 2"),
        (["--ccr", "-1"], "invalid generator spec"),
        (["--ccr", "1e307"], "invalid generator spec"),
    ], ids=["empty-shapes", "zero-count", "repeat", "repeat-other-case", "pop-1", "negative-ccr", "overflowing-ccr"])
    def test_bench_flag_rejected_before_out_is_opened(self, tmp_path, capsys, monkeypatch, flags, fragment):
        def no_grid(**kwargs):
            raise AssertionError("the grid ran with a bad flag")

        monkeypatch.setattr(bench_mod, "run_grid", no_grid)
        out_csv = tmp_path / "x.csv"
        out_csv.write_text("kept\n")
        self.assert_one_line_error(capsys, ["bench", *flags, "--seeds", "1", "--out", str(out_csv)], fragment)
        assert out_csv.read_text() == "kept\n"

    @pytest.mark.parametrize("alg", ["ga", "minmin"])
    def test_overflowed_makespan(self, tmp_path, capsys, alg):
        # every number is finite, but the five works of one machine sum past the float range
        dag = tmp_path / "big.json"
        dag.write_text(json.dumps({"tasks": [{"id": f"t{i}", "work": 1.5e308} for i in range(5)]}))
        plt = tmp_path / "p.json"
        write_platform(plt, n=1)
        log = tmp_path / "x.log"
        self.assert_one_line_error(capsys, ["schedule", str(dag), str(plt), "--alg", alg, "--pop", "4",
                                            "--iters", "2", "--out", str(log)], "the makespan overflowed to inf")
        assert not log.exists()

    @pytest.mark.parametrize("doc, fragment", [
        ({"tasks": [{"id": "a", "name": "job\nX", "work": 3}]}, "task field 'name' must be printable"),
        ({"tasks": [{"id": "a\u2028b", "work": 3}]}, "task field 'id' must be printable"),
        ({"machines": [{"id": "m1", "name": "Machine\r1", "speed": 1}]}, "machine field 'name' must be printable"),
        ({"machines": [{"id": "m\t1", "speed": 1}]}, "machine field 'id' must be printable"),
    ], ids=["task-name-newline", "task-id-line-separator", "machine-name-cr", "machine-id-tab"])
    def test_unprintable_id_or_name(self, tmp_path, capsys, doc, fragment):
        # such a name would split a `Schedule … on …` line, validate's entry/exit line or the heights table
        dag, plt, log = tmp_path / "one.json", tmp_path / "p.json", tmp_path / "out.log"
        dag.write_text(json.dumps({"tasks": [{"id": "a", "name": "job1", "work": 3}]}))
        write_platform(plt, n=1)
        (dag if "tasks" in doc else plt).write_text(json.dumps(doc))
        self.assert_one_line_error(capsys, ["schedule", str(dag), str(plt), "--alg", "minmin", "--out", str(log)],
                                   fragment)
        assert not log.exists()

    def test_bench_overflowed_makespan(self, tmp_path, capsys):
        # byte volumes near the float maximum: a GA individual that sends two of them in sequence overflows
        out_csv = tmp_path / "x.csv"
        out_csv.write_bytes(b"an earlier run's rows\r\n")
        self.assert_one_line_error(capsys, ["bench", "--shapes", "10x7", "--seeds", "1", "--ccr", "2.9e306",
                                            "--pop", "4", "--iters", "1", "--out", str(out_csv)],
                                   "the makespan overflowed to inf")
        assert out_csv.read_bytes() == b"an earlier run's rows\r\n"  # neither emptied nor written

    def test_population_of_one(self, ref_paths, capsys):
        self.assert_one_line_error(capsys, ["schedule", *ref_paths, "--pop", "1"], "pop_size must be >= 2")

    def test_out_in_missing_directory(self, ref_paths, tmp_path, capsys):
        log = tmp_path / "missing_dir" / "x.log"
        self.assert_one_line_error(capsys, ["schedule", *ref_paths, "--alg", "minmin", "--out", str(log)],
                                   "cannot write")
        assert not log.parent.exists()

    def test_bench_out_checked_before_the_grid_runs(self, tmp_path, capsys, monkeypatch):
        def no_grid(**kwargs):
            raise AssertionError("the grid ran before --out was checked")

        monkeypatch.setattr(bench_mod, "run_grid", no_grid)
        out_csv = tmp_path / "missing_dir" / "x.csv"
        self.assert_one_line_error(capsys, ["bench", "--shapes", "10x2", "--seeds", "1", "--out", str(out_csv)],
                                   "cannot write")

    @pytest.mark.parametrize("flag, value", [("--ccr", "nan"), ("--ccr", "inf"), ("--work-hi", "inf")])
    def test_gen_non_finite_flag_fails_at_the_spec(self, tmp_path, capsys, flag, value):
        out = tmp_path / "gen.json"
        self.assert_one_line_error(capsys, ["gen", "--tasks", "5", flag, value, "--out", str(out)],
                                   "invalid generator spec")
        assert not out.exists()


class TestValidateProperty:
    @given(docs=documents())
    def test_exit_0_or_1_with_one_error_line(self, tmp_path_factory, docs):
        tmp = tmp_path_factory.mktemp("docs", numbered=True)
        paths = [str(tmp / "dag.json"), str(tmp / "platform.json")]
        for path, text in zip(paths, docs):
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", *paths])
        if code == 0:  # two lines by any of the breaks str.splitlines knows
            assert err.getvalue() == "" and out.getvalue().splitlines()[1:] == ["cycle check: ok"]
        else:
            assert code == 1 and out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()


class TestGen:
    def test_task_count(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        assert main(["gen", "--tasks", "25", "--width", "10", "--seed", "3",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["tasks"]) == 25

    def test_deterministic(self, tmp_path, capsys):
        files = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["gen", "--tasks", "25", "--width", "10", "--seed", "3",
                         "--out", str(out)]) == 0
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_width_defaults_to_the_grid_shapes(self, tmp_path, capsys):
        files = []
        for width in ([], ["--width", str(bench_mod.default_width(25))]):
            out = tmp_path / f"w{len(width)}.json"
            assert main(["gen", "--tasks", "25", "--seed", "3", *width, "--out", str(out)]) == 0
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_document_to_stdout_without_out(self, capsys):
        assert main(["gen", "--tasks", "7", "--seed", "2"]) == 0
        captured = capsys.readouterr()
        g = parse_dag(captured.out)
        want, layer_of = generate_random_dag(GenSpec(n_tasks=7, width=bench_mod.default_width(7), seed=2))
        assert g.tasks == want.tasks and g.edges == want.edges
        n_layers = max(layer_of.values()) + 1
        assert captured.err == f"7 tasks, {len(want.edges)} edges, {n_layers} layers, seed 2\n"

    def test_single_task(self, tmp_path, capsys):
        out = tmp_path / "one.json"
        assert main(["gen", "--tasks", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["tasks"]) == 1 and doc["edges"] == []
